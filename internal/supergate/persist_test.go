package supergate_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"dagcover"
	"dagcover/internal/bench"
	"dagcover/internal/genlib"
	"dagcover/internal/libgen"
	"dagcover/internal/store"
	"dagcover/internal/supergate"
)

var persistOpt = supergate.Options{MaxInputs: 3, MaxDepth: 2, MaxGates: 64}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestGenerateStoredMissThenHit(t *testing.T) {
	dir := t.TempDir()
	lib1, stats1, info1, err := supergate.GenerateStored(openStore(t, dir), libgen.Lib441(), persistOpt)
	if err != nil {
		t.Fatal(err)
	}
	if info1.Hit {
		t.Fatal("first expansion reported a store hit")
	}
	if info1.ArtifactSHA == "" || info1.Key == "" {
		t.Fatalf("missing artifact identity: %+v", info1)
	}
	if stats1.Emitted == 0 {
		t.Fatalf("no supergates emitted: %+v", stats1)
	}

	// A fresh Store instance (fresh process) must hit, with the same
	// artifact identity, the same stats, and a Write-identical library.
	lib2, stats2, info2, err := supergate.GenerateStored(openStore(t, dir), libgen.Lib441(), persistOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !info2.Hit {
		t.Fatal("second expansion missed the store")
	}
	if info2.ArtifactSHA != info1.ArtifactSHA || info2.Key != info1.Key {
		t.Fatalf("artifact identity drifted: %+v vs %+v", info2, info1)
	}
	if stats2 != stats1 {
		t.Fatalf("stats did not round-trip through artifact meta: %+v vs %+v", stats2, stats1)
	}
	var w1, w2 bytes.Buffer
	if err := genlib.Write(&w1, lib1); err != nil {
		t.Fatal(err)
	}
	if err := genlib.Write(&w2, lib2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
		t.Fatal("stored library differs from generated library")
	}
}

// TestGenerateStoredRoundTripFidelity is the property the whole
// persistent path rests on: the library parsed back from the genlib
// artifact must map every circuit byte-identically to the library the
// generator returned in memory. If this holds, store-enabled and
// store-disabled runs (and regeneration after corruption) cannot
// diverge.
func TestGenerateStoredRoundTripFidelity(t *testing.T) {
	res, err := supergate.Generate(libgen.Lib441(), persistOpt)
	if err != nil {
		t.Fatal(err)
	}
	stored, _, info, err := supergate.GenerateStored(openStore(t, t.TempDir()), libgen.Lib441(), persistOpt)
	if err != nil {
		t.Fatal(err)
	}
	if info.Hit {
		t.Fatal("fresh dir reported a hit")
	}
	// The serialization must be a fixpoint: write(parse(write(lib)))
	// == write(lib), i.e. nothing is lost to text and back.
	var direct, reparsed bytes.Buffer
	if err := genlib.Write(&direct, res.Library); err != nil {
		t.Fatal(err)
	}
	if err := genlib.Write(&reparsed, stored); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Bytes(), reparsed.Bytes()) {
		t.Fatal("genlib serialization is not a fixpoint for the expanded library")
	}

	mGen := unitDAG(t, res.Library)
	mStored := unitDAG(t, stored)
	for _, c := range []struct {
		name string
		nw   func() *dagcover.Network
	}{
		{"cmp8", func() *dagcover.Network { return bench.Comparator(8) }},
		{"parity16", func() *dagcover.Network { return bench.ParityTree(16) }},
		{"c432", bench.C432},
	} {
		a, err := mGen(c.nw())
		if err != nil {
			t.Fatalf("%s generated: %v", c.name, err)
		}
		b, err := mStored(c.nw())
		if err != nil {
			t.Fatalf("%s stored: %v", c.name, err)
		}
		var ba, bb bytes.Buffer
		if err := a.Netlist.WriteBLIF(&ba); err != nil {
			t.Fatal(err)
		}
		if err := b.Netlist.WriteBLIF(&bb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
			t.Fatalf("%s: netlist from stored library differs from generated library", c.name)
		}
	}
}

func TestGenerateStoredKeyedByContentAndBounds(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	_, _, infoA, err := supergate.GenerateStored(st, libgen.Lib441(), persistOpt)
	if err != nil {
		t.Fatal(err)
	}
	// Different bounds: different artifact.
	opt2 := persistOpt
	opt2.MaxGates = 32
	_, _, infoB, err := supergate.GenerateStored(st, libgen.Lib441(), opt2)
	if err != nil {
		t.Fatal(err)
	}
	if infoB.Hit || infoB.Key == infoA.Key {
		t.Fatalf("bounds not in the key: %+v vs %+v", infoB, infoA)
	}
	// Same content under a different library name: same artifact key
	// (content-addressed, not name-addressed).
	renamed := libgen.Lib441()
	renamed.Name = "44-1-copy"
	_, _, infoC, err := supergate.GenerateStored(st, renamed, persistOpt)
	if err != nil {
		t.Fatal(err)
	}
	if infoC.Key != infoA.Key {
		t.Fatal("renaming the base library changed the artifact key")
	}
	if !infoC.Hit {
		t.Fatal("renamed base library missed the shared artifact")
	}
}

func TestGenerateStoredCorruptionRegenerates(t *testing.T) {
	dir := t.TempDir()
	_, _, info1, err := supergate.GenerateStored(openStore(t, dir), libgen.Lib441(), persistOpt)
	if err != nil {
		t.Fatal(err)
	}
	// Bit-flip every object file under the store.
	n := 0
	err = filepath.Walk(filepath.Join(dir, "objects"), func(path string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		raw[len(raw)/2] ^= 1
		n++
		return os.WriteFile(path, raw, 0o644)
	})
	if err != nil || n == 0 {
		t.Fatalf("corrupting objects: n=%d err=%v", n, err)
	}
	st := openStore(t, dir)
	lib, _, info2, err := supergate.GenerateStored(st, libgen.Lib441(), persistOpt)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Hit {
		t.Fatal("corrupt artifact served as a hit")
	}
	if info2.ArtifactSHA != info1.ArtifactSHA {
		t.Fatal("regenerated artifact differs from the original")
	}
	if lib == nil || st.Stats().Quarantined == 0 {
		t.Fatalf("corruption not quarantined: %+v", st.Stats())
	}
}

func TestGenerateStoredNilStore(t *testing.T) {
	lib, stats, info, err := supergate.GenerateStored(nil, libgen.Lib441(), persistOpt)
	if err != nil {
		t.Fatal(err)
	}
	if info.Hit || info.Key != "" || lib == nil || stats.Emitted == 0 {
		t.Fatalf("nil store path: %+v %+v", info, stats)
	}
}
