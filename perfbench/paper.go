package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"dagcover"
	"dagcover/internal/bench"
)

// goldenPath holds the committed sha256 of every ISCAS circuit mapped
// against every library; paper-suite checks each netlist against it.
const goldenPath = "cmd/benchmap/testdata/golden_iscas.json"

// paperPassesPerSecond sizes the paper-suite operation list: one pass
// maps all 30 circuit x library pairs, about a sixth of a second on
// a 2-core x86 box.
const paperPassesPerSecond = 6

// paperLib is one of the paper's libraries with the delay model its
// table uses: intrinsic pin delays for lib2 (Table 1), unit delay for
// 44-1 and 44-3 (Tables 2 and 3).
type paperLib struct {
	name  string
	lib   func() *dagcover.Library
	delay dagcover.DelayModel
}

var paperLibs = []paperLib{
	{"lib2", dagcover.Lib2, dagcover.IntrinsicDelay},
	{"44-1", dagcover.Lib441, dagcover.UnitDelay},
	{"44-3", dagcover.Lib443, dagcover.UnitDelay},
}

// paperConfig is one circuit x library pair of the paper's tables.
type paperConfig struct {
	circuit, lib string
	g            *dagcover.SubjectGraph
	cl           *dagcover.CompiledLibrary
	opt          dagcover.MapOptions
}

// paperSuite measures the engine hot path: every operation maps an
// already-built subject graph against a warm compiled library, the
// way mapd runs a request after parsing, and renders the netlist.
type paperSuite struct {
	configs []paperConfig
	order   []int // the operation list, as indices into configs
	golden  map[string]map[string]string
	compile float64 // library compile time in this set-up, ms
}

func setupPaperSuite(seed int64, seconds int) (workload, error) {
	doc, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, err
	}
	w := &paperSuite{}
	if err := json.Unmarshal(doc, &w.golden); err != nil {
		return nil, fmt.Errorf("parse %s: %w", goldenPath, err)
	}
	circuits := bench.FullSuite()
	graphs := make([]*dagcover.SubjectGraph, len(circuits))
	for i, c := range circuits {
		if graphs[i], err = dagcover.BuildSubject(c.Network); err != nil {
			return nil, fmt.Errorf("%s: %w", c.Name, err)
		}
	}
	for _, pl := range paperLibs {
		t0 := time.Now()
		cl, err := dagcover.CompileLibrary(pl.lib())
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", pl.name, err)
		}
		w.compile += float64(time.Since(t0).Nanoseconds()) / 1e6
		for i, c := range circuits {
			w.configs = append(w.configs, paperConfig{circuit: c.Name, lib: pl.name, g: graphs[i], cl: cl,
				opt: dagcover.MapOptions{Delay: pl.delay, Parallelism: 1}})
		}
	}
	w.order = paperOrder(seed, len(w.configs), seconds*paperPassesPerSecond)
	// The warm pass: every pair once, so each library's match memo
	// holds what the timed passes will look up.
	for i := range w.configs {
		if _, _, err := w.mapOne(nil, i, 0, noSpan); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// paperOrder draws the operation list: passes x every pair, each pass
// in its own seeded order, so every seed times the same multiset.
func paperOrder(seed int64, pairs, passes int) []int {
	rng := rand.New(rand.NewSource(seed))
	order := make([]int, 0, pairs*passes)
	for p := 0; p < passes; p++ {
		order = append(order, rng.Perm(pairs)...)
	}
	return order
}

// mapOne runs one operation: map the subject graph, render the BLIF.
func (w *paperSuite) mapOne(tr *tracer, ci, op, root int) (*dagcover.MapResult, []byte, error) {
	c := &w.configs[ci]
	sp := tr.begin("core.map", op, root, 0)
	res, err := c.cl.MapSubjectCompiled(context.Background(), c.g, &c.opt)
	tr.end(sp)
	if err != nil {
		return nil, nil, fmt.Errorf("%s x %s: %w", c.circuit, c.lib, err)
	}
	var buf bytes.Buffer
	sp = tr.begin("mapping.render", op, root, 0)
	err = res.Netlist.WriteBLIF(&buf)
	tr.end(sp)
	if err != nil {
		return nil, nil, fmt.Errorf("%s x %s: render: %w", c.circuit, c.lib, err)
	}
	return res, buf.Bytes(), nil
}

func (w *paperSuite) run(tr *tracer) (*pass, error) {
	p := newPass(len(w.order))
	p.sums["library.compile_ms"] = w.compile
	p.sums["library.compiles"] = float64(len(paperLibs))
	for i, ci := range w.order {
		root := tr.begin("op", i, noSpan, 0)
		t0 := time.Now()
		res, blif, err := w.mapOne(tr, ci, i, root)
		d := time.Since(t0)
		tr.end(root)
		p.wall += d
		c := &w.configs[ci]
		if err != nil {
			p.ops = append(p.ops, failedOp("map", err))
			continue
		}
		addEngine(p.sums, c.lib, res)
		p.sums["mapping.calls"]++
		p.sums["mapping.bytes"] += float64(len(blif))
		sum := sha256.Sum256(blif)
		p.ops = append(p.ops, opResult{class: "map", ms: float64(d.Nanoseconds()) / 1e6, ref: -1,
			out: hex.EncodeToString(sum[:]), key: c.circuit + "/" + c.lib, delay: res.Delay, area: res.Area})
	}
	seen := map[*dagcover.CompiledLibrary]bool{}
	for _, c := range w.configs {
		if !seen[c.cl] {
			seen[c.cl] = true
			p.sums["match.memo_entries"] += float64(c.cl.MemoStats().Entries)
		}
	}
	return p, nil
}

func (w *paperSuite) check(p *pass) []string {
	var bad []string
	for i, op := range p.ops {
		c := &w.configs[w.order[i]]
		want := w.golden[c.circuit][c.lib]
		switch {
		case op.failed:
			bad = append(bad, fmt.Sprintf("op %d %s x %s failed: %s", i, c.circuit, c.lib, op.err))
		case want == "":
			bad = append(bad, fmt.Sprintf("op %d %s x %s: no golden hash in %s", i, c.circuit, c.lib, goldenPath))
		case op.out != want:
			bad = append(bad, fmt.Sprintf("op %d %s x %s: netlist sha256 %s, golden %s", i, c.circuit, c.lib, op.out, want))
		}
	}
	return bad
}

func (w *paperSuite) close() {}

// addEngine sums what one MapSubjectCompiled call reported.
func addEngine(s map[string]float64, lib string, res *dagcover.MapResult) {
	s["engine.ops"]++
	s["core.calls"]++
	s["core.calls."+lib]++
	s["core.label"] += res.Phases.LabelWallMillis
	s["core.label."+lib] += res.Phases.LabelWallMillis
	s["core.area"] += res.Phases.AreaMillis
	s["core.cover"] += res.Phases.CoverMillis
	s["core.emit"] += res.Phases.EmitMillis
	s["subject.nodes"] += float64(res.SubjectNodes)
	s["match.patterns"] += float64(res.PatternsTried)
	s["match.memo_hits"] += float64(res.MemoHits)
	s["match.memo_misses"] += float64(res.MemoMisses)
}
