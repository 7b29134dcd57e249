package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"time"

	"dagcover"
	"dagcover/internal/bench"
)

// expectedStreamPath holds the sha256 of every stream-scale netlist,
// written once by --write-expected after dagcover.Verify accepted each.
const expectedStreamPath = "perfbench/expected_stream.json"

// streamPassSeconds sizes the stream-scale operation list: one pass
// maps every stratum against both libraries, about 2.5 seconds on a
// 2-core x86 box with a quiet host (twice that on a busy one).
const streamPassSeconds = 2.5

// streamStrata are the input sizes, from about 20k to 175k subject
// nodes. A stratum lists variants of near-equal size and depth; the
// seed picks one per stratum, so two seeds map different netlists
// that cost about the same. The array multipliers have one variant:
// the next size up or down is 4% more or fewer nodes.
var streamStrata = [][]string{
	{"mult28"}, // 19k nodes
	{"alumesh14x14", "alumesh13x15", "alumesh15x13"}, // 36k
	{"mult47"}, // 55k
	{"alumesh21x21", "alumesh20x22", "alumesh22x20"}, // 80k
	{"mult69"}, // 119k
	{"alumesh31x31", "alumesh30x32", "alumesh32x30"}, // 175k
}

// streamLibs are the unit-delay libraries stream-scale compiles.
var streamLibs = []paperLib{paperLibs[1], paperLibs[2]}

type streamInput struct {
	family string
	blif   []byte
}

type streamOp struct {
	input int
	lib   int // index into streamLibs
}

// streamScale measures a cold, techmap-style run at 10^5 nodes: every
// operation streams BLIF into a subject graph, compiles the library
// (a cold match memo), maps, and renders.
type streamScale struct {
	inputs   []streamInput
	libs     []*dagcover.Library
	order    []streamOp
	expected map[string]map[string]string
}

func setupStreamScale(seed int64, seconds int) (workload, error) {
	doc, err := os.ReadFile(expectedStreamPath)
	if err != nil {
		return nil, err
	}
	w := &streamScale{}
	if err := json.Unmarshal(doc, &w.expected); err != nil {
		return nil, fmt.Errorf("parse %s: %w", expectedStreamPath, err)
	}
	rng := rand.New(rand.NewSource(seed))
	for _, variants := range streamStrata {
		family := variants[rng.Intn(len(variants))]
		blif, err := renderFamily(family)
		if err != nil {
			return nil, err
		}
		w.inputs = append(w.inputs, streamInput{family, blif})
	}
	for _, sl := range streamLibs {
		w.libs = append(w.libs, sl.lib())
	}
	passes := max(1, int(math.Round(float64(seconds)/streamPassSeconds)))
	pairs := len(w.inputs) * len(w.libs)
	for p := 0; p < passes; p++ {
		for _, k := range rng.Perm(pairs) {
			w.order = append(w.order, streamOp{input: k / len(w.libs), lib: k % len(w.libs)})
		}
	}
	// The warm pass: one operation on the smallest input.
	if _, _, err := w.mapOne(nil, streamOp{}, 0, noSpan, map[string]float64{}); err != nil {
		return nil, err
	}
	return w, nil
}

func renderFamily(family string) ([]byte, error) {
	gen, ok := bench.StreamFamily(family)
	if !ok {
		return nil, fmt.Errorf("unknown stream family %q", family)
	}
	var buf bytes.Buffer
	if err := gen(&buf); err != nil {
		return nil, fmt.Errorf("%s: %w", family, err)
	}
	return buf.Bytes(), nil
}

// mapOne runs one operation: stream, compile, map, render.
func (w *streamScale) mapOne(tr *tracer, o streamOp, op, root int, sums map[string]float64) (*dagcover.MapResult, []byte, error) {
	in, sl := &w.inputs[o.input], streamLibs[o.lib]
	sp := tr.begin("blif.stream", op, root, 0)
	g, err := dagcover.StreamSubjectBLIF(bytes.NewReader(in.blif))
	tr.end(sp)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: ingest: %w", in.family, err)
	}
	sp = tr.begin("library.compile", op, root, 0)
	t0 := time.Now()
	cl, err := dagcover.CompileLibrary(w.libs[o.lib])
	sums["library.compile_ms"] += float64(time.Since(t0).Nanoseconds()) / 1e6
	tr.end(sp)
	if err != nil {
		return nil, nil, fmt.Errorf("compile %s: %w", sl.name, err)
	}
	sp = tr.begin("core.map", op, root, 0)
	res, err := cl.MapSubjectCompiled(context.Background(), g, &dagcover.MapOptions{Delay: sl.delay, Parallelism: 1})
	tr.end(sp)
	if err != nil {
		return nil, nil, fmt.Errorf("%s x %s: %w", in.family, sl.name, err)
	}
	var buf bytes.Buffer
	sp = tr.begin("mapping.render", op, root, 0)
	err = res.Netlist.WriteBLIF(&buf)
	tr.end(sp)
	if err != nil {
		return nil, nil, fmt.Errorf("%s x %s: render: %w", in.family, sl.name, err)
	}
	return res, buf.Bytes(), nil
}

func (w *streamScale) run(tr *tracer) (*pass, error) {
	p := newPass(len(w.order))
	for i, o := range w.order {
		root := tr.begin("op", i, noSpan, 0)
		t0 := time.Now()
		res, blif, err := w.mapOne(tr, o, i, root, p.sums)
		d := time.Since(t0)
		tr.end(root)
		p.wall += d
		p.sums["library.compiles"]++
		if err != nil {
			p.ops = append(p.ops, failedOp("stream", err))
			continue
		}
		in, lib := &w.inputs[o.input], streamLibs[o.lib].name
		addEngine(p.sums, lib, res)
		p.sums["blif.calls"]++
		p.sums["blif.bytes"] += float64(len(in.blif))
		p.sums["mapping.calls"]++
		p.sums["mapping.bytes"] += float64(len(blif))
		p.sums["match.memo_entries"] += float64(res.MemoEntries)
		sum := sha256.Sum256(blif)
		p.ops = append(p.ops, opResult{class: "stream", ms: float64(d.Nanoseconds()) / 1e6, ref: -1,
			out: hex.EncodeToString(sum[:]), key: in.family + "/" + lib, delay: res.Delay, area: res.Area})
	}
	// Each operation starts from a cold memo: report the table size one
	// operation ends with.
	if n := p.sums["engine.ops"]; n > 0 {
		p.sums["match.memo_entries"] /= n
	}
	return p, nil
}

func (w *streamScale) check(p *pass) []string {
	var bad []string
	for i, op := range p.ops {
		o := w.order[i]
		family, lib := w.inputs[o.input].family, streamLibs[o.lib].name
		want := w.expected[family][lib]
		switch {
		case op.failed:
			bad = append(bad, fmt.Sprintf("op %d %s x %s failed: %s", i, family, lib, op.err))
		case want == "":
			bad = append(bad, fmt.Sprintf("op %d %s x %s: no expected hash in %s", i, family, lib, expectedStreamPath))
		case op.out != want:
			bad = append(bad, fmt.Sprintf("op %d %s x %s: netlist sha256 %s, expected %s", i, family, lib, op.out, want))
		}
	}
	return bad
}

func (w *streamScale) close() {}

// writeExpectedStream maps every variant of every stratum against both
// libraries, checks each netlist with dagcover.Verify, and writes the
// netlist hashes to path. It is a one-off: verification costs seconds
// per netlist at these sizes, too much for every run.
func writeExpectedStream(path string, log io.Writer) error {
	w := &streamScale{}
	for _, sl := range streamLibs {
		w.libs = append(w.libs, sl.lib())
	}
	out := map[string]map[string]string{}
	for _, variants := range streamStrata {
		for _, family := range variants {
			blif, err := renderFamily(family)
			if err != nil {
				return err
			}
			w.inputs = []streamInput{{family, blif}}
			nw, err := dagcover.ParseBLIF(bytes.NewReader(blif))
			if err != nil {
				return fmt.Errorf("%s: parse: %w", family, err)
			}
			out[family] = map[string]string{}
			for li, sl := range streamLibs {
				res, mapped, err := w.mapOne(nil, streamOp{lib: li}, 0, noSpan, map[string]float64{})
				if err != nil {
					return err
				}
				t0 := time.Now()
				if err := dagcover.Verify(nw, res.Netlist); err != nil {
					return fmt.Errorf("%s x %s: verify: %w", family, sl.name, err)
				}
				sum := sha256.Sum256(mapped)
				out[family][sl.name] = hex.EncodeToString(sum[:])
				fmt.Fprintf(log, "%-14s x %-4s %7d nodes  verified in %v\n", family, sl.name, res.SubjectNodes, time.Since(t0).Round(time.Millisecond))
			}
		}
	}
	doc, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(doc, '\n'), 0o644)
}
