// Package experiments regenerates the paper's evaluation: Tables 1-3
// (tree vs DAG covering under lib2, 44-1 and 44-3), the Figure 1/2
// demonstrations, and the ablations listed in DESIGN.md. It is shared
// by cmd/experiments and the repository's benchmark harness.
package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"dagcover/internal/bench"
	"dagcover/internal/core"
	"dagcover/internal/cutmap"
	"dagcover/internal/flowmap"
	"dagcover/internal/genlib"
	"dagcover/internal/libgen"
	"dagcover/internal/mapping"
	"dagcover/internal/match"
	"dagcover/internal/network"
	"dagcover/internal/obs"
	"dagcover/internal/resynth"
	"dagcover/internal/retime"
	"dagcover/internal/seqmap"
	"dagcover/internal/subject"
	"dagcover/internal/supergate"
	"dagcover/internal/treemap"
	"dagcover/internal/verify"
)

// Row is one line of a tree-vs-DAG table.
type Row struct {
	Circuit             string
	SubjectNodes        int
	TreeDelay, DAGDelay float64
	TreeArea, DAGArea   float64
	TreeCPU, DAGCPU     time.Duration
	// DAGCPUPar is the wall-clock of the same DAG covering run with
	// wavefront-parallel labeling (0 when Options.Parallelism <= 1).
	// The parallel run is checked to reproduce the serial mapping
	// exactly before its time is reported.
	DAGCPUPar  time.Duration
	Duplicated int
	// Phases breaks the row's work down by pipeline phase.
	Phases RowPhases
}

// RowPhases is the per-phase wall-time breakdown of one row: where
// the tree run, the DAG run, and verification each spent their time.
type RowPhases struct {
	// TreeCover is the tree-covering DP (plus emission) time.
	TreeCover time.Duration
	// Label, Cover and Emit split the serial DAG run.
	Label, Cover, Emit time.Duration
	// Verify is the simulation-verification time (0 without -verify).
	Verify time.Duration
}

// TableSpec describes one of the paper's tables.
type TableSpec struct {
	ID      string
	Library *genlib.Library
	Delay   genlib.DelayModel
}

// Table1 is tree vs DAG under the lib2-like library with intrinsic
// delays (paper Table 1).
func Table1() TableSpec {
	return TableSpec{ID: "1", Library: libgen.Lib2(), Delay: genlib.IntrinsicDelay{}}
}

// Table2 is tree vs DAG under the 7-gate 44-1 library with unit delay
// (paper Table 2).
func Table2() TableSpec {
	return TableSpec{ID: "2", Library: libgen.Lib441(), Delay: genlib.UnitDelay{}}
}

// Table3 is tree vs DAG under the rich 44-3 library with unit delay
// (paper Table 3).
func Table3() TableSpec {
	return TableSpec{ID: "3", Library: libgen.Lib443(), Delay: genlib.UnitDelay{}}
}

// Options tunes a run.
type Options struct {
	// Verify functionally checks every mapping (slower).
	Verify bool
	// Class is the DAG-covering match class (default standard,
	// footnote 3).
	Class match.Class
	// Circuits overrides the benchmark set (default bench.Suite()).
	Circuits []bench.Circuit
	// Parallelism, when above 1, additionally times DAG covering with
	// that many wavefront-labeling workers (Row.DAGCPUPar) and checks
	// the parallel run reproduces the serial mapping bit-for-bit.
	Parallelism int
	// Memo attaches a structural match memo to the table's matchers
	// (canonical cone keys → replayable recipes). Mapped results are
	// identical either way; the memo only changes run time.
	Memo bool
	// Trace, when non-nil, records every mapping run's phase spans.
	Trace *obs.Trace
}

// Run executes a table.
func Run(spec TableSpec, opt Options) ([]Row, error) {
	if opt.Class == match.Exact {
		opt.Class = match.Standard
	}
	circuits := opt.Circuits
	if circuits == nil {
		circuits = bench.Suite()
	}
	shared, _, err := subject.CompileLibrary(spec.Library, subject.CompileOptions{Share: true})
	if err != nil {
		return nil, err
	}
	trees, _, err := subject.CompileLibrary(spec.Library, subject.CompileOptions{Share: false})
	if err != nil {
		return nil, err
	}
	var dagOpts, treeOpts []match.Option
	if opt.Memo {
		dagOpts = append(dagOpts, match.WithMemo(match.NewMemo(0)))
		treeOpts = append(treeOpts, match.WithMemo(match.NewMemo(0)))
	}
	dagM := match.NewMatcher(shared, dagOpts...)
	treeM := match.NewMatcher(trees, treeOpts...)

	var rows []Row
	for _, c := range circuits {
		g, err := subject.FromNetwork(c.Network)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", c.Name, err)
		}
		row := Row{Circuit: c.Name, SubjectNodes: g.NumNodes()}

		start := time.Now()
		tres, err := treemap.Map(g, treeM, treemap.Options{Delay: spec.Delay, Trace: opt.Trace})
		if err != nil {
			return nil, fmt.Errorf("%s: tree: %v", c.Name, err)
		}
		row.TreeCPU = time.Since(start)
		row.TreeDelay = tres.Delay
		row.TreeArea = tres.Netlist.Area()
		row.Phases.TreeCover = tres.Cover + tres.Emit

		start = time.Now()
		dres, err := core.Map(g, dagM, core.Options{Class: opt.Class, Delay: spec.Delay, Trace: opt.Trace})
		if err != nil {
			return nil, fmt.Errorf("%s: DAG: %v", c.Name, err)
		}
		row.DAGCPU = time.Since(start)
		row.DAGDelay = dres.Delay
		row.DAGArea = dres.Netlist.Area()
		row.Duplicated = dres.Stats.DuplicatedNodes
		row.Phases.Label = dres.Stats.Phases.Label
		row.Phases.Cover = dres.Stats.Phases.Cover
		row.Phases.Emit = dres.Stats.Phases.Emit

		if opt.Parallelism > 1 {
			start = time.Now()
			pres, err := core.Map(g, dagM, core.Options{
				Class: opt.Class, Delay: spec.Delay, Parallelism: opt.Parallelism,
			})
			if err != nil {
				return nil, fmt.Errorf("%s: parallel DAG: %v", c.Name, err)
			}
			row.DAGCPUPar = time.Since(start)
			if pres.Delay != dres.Delay ||
				pres.Netlist.NumCells() != dres.Netlist.NumCells() ||
				pres.Netlist.Area() != dres.Netlist.Area() {
				return nil, fmt.Errorf("%s: parallel DAG diverged: delay %v vs %v, cells %d vs %d",
					c.Name, pres.Delay, dres.Delay,
					pres.Netlist.NumCells(), dres.Netlist.NumCells())
			}
		}

		if opt.Verify {
			vSpan := opt.Trace.Start("experiments.verify")
			vStart := time.Now()
			if err := verify.Mapped(c.Network, tres.Netlist, verify.Options{}); err != nil {
				return nil, fmt.Errorf("%s: tree mapping wrong: %v", c.Name, err)
			}
			if err := verify.Mapped(c.Network, dres.Netlist, verify.Options{}); err != nil {
				return nil, fmt.Errorf("%s: DAG mapping wrong: %v", c.Name, err)
			}
			row.Phases.Verify = time.Since(vStart)
			vSpan.Arg("circuit", c.Name).End()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Format renders rows like the paper's tables, with the DAG run's
// label/cover phase split appended. When any row carries a parallel
// labeling time, a "par cpu" column is appended; when any row was
// verified, a "verify" column is.
func Format(spec TableSpec, rows []Row) string {
	par, verified := false, false
	for _, r := range rows {
		if r.DAGCPUPar > 0 {
			par = true
		}
		if r.Phases.Verify > 0 {
			verified = true
		}
	}
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	var b strings.Builder
	fmt.Fprintf(&b, "Table %s: tree mapping vs DAG mapping for %s (%s delay)\n",
		spec.ID, spec.Library.Name, spec.Delay.Name())
	fmt.Fprintf(&b, "%-8s %8s | %9s %9s | %10s %10s | %9s %9s | %5s | %8s %8s",
		"circuit", "subj", "tree dly", "DAG dly", "tree area", "DAG area", "tree cpu", "DAG cpu", "dup",
		"label", "cover")
	if verified {
		fmt.Fprintf(&b, " %8s", "verify")
	}
	if par {
		fmt.Fprintf(&b, " | %9s", "par cpu")
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %8d | %9.2f %9.2f | %10.0f %10.0f | %9s %9s | %5d | %6.1fms %6.1fms",
			r.Circuit, r.SubjectNodes, r.TreeDelay, r.DAGDelay, r.TreeArea, r.DAGArea,
			r.TreeCPU.Round(time.Millisecond), r.DAGCPU.Round(time.Millisecond), r.Duplicated,
			ms(r.Phases.Label), ms(r.Phases.Cover))
		if verified {
			fmt.Fprintf(&b, " %6.1fms", ms(r.Phases.Verify))
		}
		if par {
			fmt.Fprintf(&b, " | %9s", r.DAGCPUPar.Round(time.Millisecond))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatJSON renders rows as one JSON document per table, carrying
// the same per-phase breakdown as the text table (milliseconds).
func FormatJSON(spec TableSpec, rows []Row) (string, error) {
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	type phasesJSON struct {
		TreeCoverMillis float64 `json:"tree_cover_ms"`
		LabelMillis     float64 `json:"label_ms"`
		CoverMillis     float64 `json:"cover_ms"`
		EmitMillis      float64 `json:"emit_ms"`
		VerifyMillis    float64 `json:"verify_ms"`
	}
	type rowJSON struct {
		Circuit       string     `json:"circuit"`
		SubjectNodes  int        `json:"subject_nodes"`
		TreeDelay     float64    `json:"tree_delay"`
		DAGDelay      float64    `json:"dag_delay"`
		TreeArea      float64    `json:"tree_area"`
		DAGArea       float64    `json:"dag_area"`
		TreeCPUMillis float64    `json:"tree_cpu_ms"`
		DAGCPUMillis  float64    `json:"dag_cpu_ms"`
		DAGCPUParMs   float64    `json:"dag_cpu_par_ms,omitempty"`
		Duplicated    int        `json:"duplicated"`
		Phases        phasesJSON `json:"phases"`
	}
	doc := struct {
		Table      string    `json:"table"`
		Library    string    `json:"library"`
		DelayModel string    `json:"delay_model"`
		Rows       []rowJSON `json:"rows"`
	}{Table: spec.ID, Library: spec.Library.Name, DelayModel: spec.Delay.Name()}
	for _, r := range rows {
		doc.Rows = append(doc.Rows, rowJSON{
			Circuit:       r.Circuit,
			SubjectNodes:  r.SubjectNodes,
			TreeDelay:     r.TreeDelay,
			DAGDelay:      r.DAGDelay,
			TreeArea:      r.TreeArea,
			DAGArea:       r.DAGArea,
			TreeCPUMillis: ms(r.TreeCPU),
			DAGCPUMillis:  ms(r.DAGCPU),
			DAGCPUParMs:   ms(r.DAGCPUPar),
			Duplicated:    r.Duplicated,
			Phases: phasesJSON{
				TreeCoverMillis: ms(r.Phases.TreeCover),
				LabelMillis:     ms(r.Phases.Label),
				CoverMillis:     ms(r.Phases.Cover),
				EmitMillis:      ms(r.Phases.Emit),
				VerifyMillis:    ms(r.Phases.Verify),
			},
		})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}

// RichnessPoint is one step of the library-richness ablation (A2).
type RichnessPoint struct {
	MaxGroupSize int
	Gates        int
	TreeDelay    float64
	DAGDelay     float64
}

// RichnessSweep maps one circuit under libraries of growing maximum
// AOI/OAI group size (ablation A2: the Table 2 -> Table 3 effect as a
// curve).
func RichnessSweep(circuit bench.Circuit) ([]RichnessPoint, error) {
	var out []RichnessPoint
	g, err := subject.FromNetwork(circuit.Network)
	if err != nil {
		return nil, err
	}
	for gs := 1; gs <= 4; gs++ {
		lib := libgen.Rich(fmt.Sprintf("rich-%d", gs), libgen.RichOptions{MaxGroupSize: gs})
		shared, _, err := subject.CompileLibrary(lib, subject.CompileOptions{Share: true})
		if err != nil {
			return nil, err
		}
		trees, _, err := subject.CompileLibrary(lib, subject.CompileOptions{Share: false})
		if err != nil {
			return nil, err
		}
		tres, err := treemap.Map(g, match.NewMatcher(trees), treemap.Options{Delay: genlib.UnitDelay{}})
		if err != nil {
			return nil, err
		}
		dres, err := core.Map(g, match.NewMatcher(shared), core.Options{Class: match.Standard, Delay: genlib.UnitDelay{}})
		if err != nil {
			return nil, err
		}
		out = append(out, RichnessPoint{
			MaxGroupSize: gs,
			Gates:        len(lib.Gates),
			TreeDelay:    tres.Delay,
			DAGDelay:     dres.Delay,
		})
	}
	return out, nil
}

// MatchClassPoint is one row of the footnote-3 ablation (A1).
type MatchClassPoint struct {
	Circuit       string
	StandardDelay float64
	ExtendedDelay float64
	StandardCPU   time.Duration
	ExtendedCPU   time.Duration
}

// MatchClassAblation compares standard vs extended matches (the paper
// reports no major quality difference — footnote 3).
func MatchClassAblation(spec TableSpec, circuits []bench.Circuit) ([]MatchClassPoint, error) {
	shared, _, err := subject.CompileLibrary(spec.Library, subject.CompileOptions{Share: true})
	if err != nil {
		return nil, err
	}
	m := match.NewMatcher(shared)
	var out []MatchClassPoint
	for _, c := range circuits {
		g, err := subject.FromNetwork(c.Network)
		if err != nil {
			return nil, err
		}
		p := MatchClassPoint{Circuit: c.Name}
		start := time.Now()
		std, err := core.Map(g, m, core.Options{Class: match.Standard, Delay: spec.Delay})
		if err != nil {
			return nil, err
		}
		p.StandardCPU = time.Since(start)
		p.StandardDelay = std.Delay
		start = time.Now()
		ext, err := core.Map(g, m, core.Options{Class: match.Extended, Delay: spec.Delay})
		if err != nil {
			return nil, err
		}
		p.ExtendedCPU = time.Since(start)
		p.ExtendedDelay = ext.Delay
		out = append(out, p)
	}
	return out, nil
}

// AreaRecoveryPoint is one row of ablation A3.
type AreaRecoveryPoint struct {
	Circuit       string
	Delay         float64
	PlainArea     float64
	RecoveredArea float64
}

// AreaRecoveryAblation measures the slack-driven area recovery.
func AreaRecoveryAblation(spec TableSpec, circuits []bench.Circuit) ([]AreaRecoveryPoint, error) {
	shared, _, err := subject.CompileLibrary(spec.Library, subject.CompileOptions{Share: true})
	if err != nil {
		return nil, err
	}
	m := match.NewMatcher(shared)
	var out []AreaRecoveryPoint
	for _, c := range circuits {
		g, err := subject.FromNetwork(c.Network)
		if err != nil {
			return nil, err
		}
		plain, err := core.Map(g, m, core.Options{Class: match.Standard, Delay: spec.Delay})
		if err != nil {
			return nil, err
		}
		rec, err := core.Map(g, m, core.Options{Class: match.Standard, Delay: spec.Delay, AreaRecovery: true})
		if err != nil {
			return nil, err
		}
		if rec.Delay > plain.Delay+1e-9 {
			return nil, fmt.Errorf("%s: area recovery changed delay %v -> %v", c.Name, plain.Delay, rec.Delay)
		}
		out = append(out, AreaRecoveryPoint{
			Circuit:       c.Name,
			Delay:         plain.Delay,
			PlainArea:     plain.Netlist.Area(),
			RecoveredArea: rec.Netlist.Area(),
		})
	}
	return out, nil
}

// BufferingPoint is one row of the buffering study (E3): the paper's
// §5 justification that load effects can be repaired after mapping by
// buffer insertion at multiple-fanout points.
type BufferingPoint struct {
	Circuit string
	// Intrinsic is the load-free delay the mapper optimized.
	Intrinsic float64
	// LoadedBefore is the delay under the full load-dependent model.
	LoadedBefore float64
	// LoadedAfter is the loaded delay after buffer insertion.
	LoadedAfter float64
	// Buffers is the number of inserted buffer cells.
	Buffers int
	// MaxFanout is the fanout bound used (0 = buffering did not help).
	MaxFanout int
}

// BufferingStudy maps each circuit with DAG covering under the
// intrinsic model, then measures the loaded delay before and after
// fanout buffering. When maxFanout is 0, the best bound from
// {4, 8, 16, 32} is chosen per circuit (buffering below the load
// crossover hurts: every buffer costs its own intrinsic delay).
func BufferingStudy(spec TableSpec, circuits []bench.Circuit, maxFanout int) ([]BufferingPoint, error) {
	buffer := spec.Library.Buffer()
	if buffer == nil {
		return nil, fmt.Errorf("experiments: library %q has no buffer gate", spec.Library.Name)
	}
	shared, _, err := subject.CompileLibrary(spec.Library, subject.CompileOptions{Share: true})
	if err != nil {
		return nil, err
	}
	m := match.NewMatcher(shared)
	var out []BufferingPoint
	for _, c := range circuits {
		g, err := subject.FromNetwork(c.Network)
		if err != nil {
			return nil, err
		}
		res, err := core.Map(g, m, core.Options{Class: match.Standard, Delay: spec.Delay})
		if err != nil {
			return nil, err
		}
		before, err := res.Netlist.DelayLoaded(mapping.LoadOptions{})
		if err != nil {
			return nil, err
		}
		bounds := []int{maxFanout}
		if maxFanout == 0 {
			bounds = []int{4, 8, 16, 32}
		}
		best := BufferingPoint{
			Circuit:      c.Name,
			Intrinsic:    res.Delay,
			LoadedBefore: before.Delay,
			LoadedAfter:  before.Delay, // no buffering is a valid choice
		}
		for _, bound := range bounds {
			buffered, err := res.Netlist.InsertBuffers(buffer, bound)
			if err != nil {
				return nil, err
			}
			after, err := buffered.DelayLoaded(mapping.LoadOptions{})
			if err != nil {
				return nil, err
			}
			if after.Delay < best.LoadedAfter {
				best.LoadedAfter = after.Delay
				best.Buffers = buffered.NumCells() - res.Netlist.NumCells()
				best.MaxFanout = bound
			}
		}
		out = append(out, best)
	}
	return out, nil
}

// DecompPoint is one row of the decomposition-sensitivity study (A4):
// the paper's §4 caveat that optimality is relative to the chosen
// subject graph (the motivation for Lehman et al.'s mapping graphs).
type DecompPoint struct {
	Circuit       string
	BalancedDelay float64
	ChainDelay    float64
	BalancedNodes int
	ChainNodes    int
}

// DecompositionStudy maps each circuit with DAG covering on a
// balanced and on a chain-decomposed subject graph; patterns are
// compiled in the matching style so wide gates stay matchable.
func DecompositionStudy(spec TableSpec, circuits []bench.Circuit) ([]DecompPoint, error) {
	matchers := map[bool]*match.Matcher{}
	for _, chain := range []bool{false, true} {
		pats, _, err := subject.CompileLibrary(spec.Library, subject.CompileOptions{Share: true, Chain: chain})
		if err != nil {
			return nil, err
		}
		matchers[chain] = match.NewMatcher(pats)
	}
	var out []DecompPoint
	for _, c := range circuits {
		p := DecompPoint{Circuit: c.Name}
		for _, chain := range []bool{false, true} {
			g, err := subject.FromNetworkChained(c.Network, chain)
			if err != nil {
				return nil, err
			}
			res, err := core.Map(g, matchers[chain], core.Options{Class: match.Standard, Delay: spec.Delay})
			if err != nil {
				return nil, err
			}
			if chain {
				p.ChainDelay, p.ChainNodes = res.Delay, g.NumNodes()
			} else {
				p.BalancedDelay, p.BalancedNodes = res.Delay, g.NumNodes()
			}
		}
		out = append(out, p)
	}
	return out, nil
}

// TradeoffPoint is one step of the LUT area/depth trade-off study
// (E4): Cong & Ding's result the paper's conclusion builds on.
type TradeoffPoint struct {
	Slack int
	Depth int
	LUTs  int
}

// LUTTradeoff maps one circuit with priority cuts at K inputs,
// sweeping the depth slack and reporting the LUT count curve.
func LUTTradeoff(circuit bench.Circuit, k int, maxSlack int) ([]TradeoffPoint, error) {
	g, err := subject.FromNetwork(circuit.Network)
	if err != nil {
		return nil, err
	}
	var out []TradeoffPoint
	for slack := 0; slack <= maxSlack; slack++ {
		res, err := cutmap.Map(g, cutmap.Options{K: k, Mode: cutmap.ModeArea, Slack: slack})
		if err != nil {
			return nil, err
		}
		out = append(out, TradeoffPoint{Slack: slack, Depth: res.Depth, LUTs: res.LUTs})
	}
	return out, nil
}

// SizingPoint is one row of the gate-sizing study (E5): the paper's
// §5 discussion — mapping under a load-free model, then recovering
// the load behaviour by sizing, versus the "many discrete size gates"
// approach whose cost shows up as extra pattern-matching work.
type SizingPoint struct {
	Circuit string
	// Intrinsic is the load-free mapped delay.
	Intrinsic float64
	// LoadedBefore / LoadedAfter bracket the sizing pass.
	LoadedBefore, LoadedAfter float64
	// Swaps is the number of resize operations applied.
	Swaps int
	// BaseMatches / SizedMatches count match enumerations when
	// mapping with the single-size vs the size-expanded library —
	// the cost the paper calls "very expensive".
	BaseMatches, SizedMatches int
}

// SizingStudy maps each circuit with the base library, sizes the
// result discretely (x1/x2/x4), and also maps once with the
// size-expanded library to expose the match-count blowup.
func SizingStudy(circuits []bench.Circuit) ([]SizingPoint, error) {
	base := libgen.Lib2()
	sizedLib := libgen.Sized(base, []float64{1, 2, 4})
	groups := genlib.VariantGroups(sizedLib)

	basePats, _, err := subject.CompileLibrary(base, subject.CompileOptions{Share: true})
	if err != nil {
		return nil, err
	}
	sizedPats, _, err := subject.CompileLibrary(sizedLib, subject.CompileOptions{Share: true})
	if err != nil {
		return nil, err
	}
	baseM := match.NewMatcher(basePats)
	sizedM := match.NewMatcher(sizedPats)

	var out []SizingPoint
	for _, c := range circuits {
		g, err := subject.FromNetwork(c.Network)
		if err != nil {
			return nil, err
		}
		res, err := core.Map(g, baseM, core.Options{Class: match.Standard, Delay: genlib.IntrinsicDelay{}})
		if err != nil {
			return nil, err
		}
		p := SizingPoint{Circuit: c.Name, Intrinsic: res.Delay, BaseMatches: res.Stats.MatchesEnumerated}
		before, err := res.Netlist.DelayLoaded(mapping.LoadOptions{})
		if err != nil {
			return nil, err
		}
		p.LoadedBefore = before.Delay
		// Rebase cells onto their x1 variants so the sizing pass can
		// move within the sized library's groups.
		rebased := res.Netlist.Clone()
		for _, cell := range rebased.Cells {
			if vs := groups[cell.Gate.FunctionKey()]; len(vs) > 0 {
				cell.Gate = vs[0]
			}
		}
		sizedNl, swaps, err := rebased.SizeCells(groups, mapping.LoadOptions{}, 200)
		if err != nil {
			return nil, err
		}
		after, err := sizedNl.DelayLoaded(mapping.LoadOptions{})
		if err != nil {
			return nil, err
		}
		p.LoadedAfter = after.Delay
		p.Swaps = swaps
		// Direct mapping with the expanded library: same intrinsic
		// quality (block delays are size-independent), triple the
		// matching work.
		sres, err := core.Map(g, sizedM, core.Options{Class: match.Standard, Delay: genlib.IntrinsicDelay{}})
		if err != nil {
			return nil, err
		}
		p.SizedMatches = sres.Stats.MatchesEnumerated
		out = append(out, p)
	}
	return out, nil
}

// ArchPoint is one row of the architecture study (E6): how much of an
// architectural depth advantage survives technology mapping, and how
// much DAG covering adds on top of each architecture.
type ArchPoint struct {
	Circuit      string
	SubjectDepth int
	TreeDelay    float64
	DAGDelay     float64
}

// ArchitectureStudy maps structurally different implementations of
// the same functions (adders: ripple / carry-select / Kogge-Stone;
// multipliers: array / Wallace) under one library.
func ArchitectureStudy(spec TableSpec) ([]ArchPoint, error) {
	circuits := []bench.Circuit{
		{Name: "ripple32", Network: bench.RippleAdder(32)},
		{Name: "csel32", Network: bench.CarrySelectAdder(32, 4)},
		{Name: "kogge32", Network: bench.KoggeStoneAdder(32)},
		{Name: "array12", Network: bench.ArrayMultiplier(12)},
		{Name: "wallace12", Network: bench.WallaceMultiplier(12)},
	}
	rows, err := Run(spec, Options{Circuits: circuits})
	if err != nil {
		return nil, err
	}
	var out []ArchPoint
	for i, r := range rows {
		g, err := subject.FromNetwork(circuits[i].Network)
		if err != nil {
			return nil, err
		}
		out = append(out, ArchPoint{
			Circuit:      r.Circuit,
			SubjectDepth: g.Depth(),
			TreeDelay:    r.TreeDelay,
			DAGDelay:     r.DAGDelay,
		})
	}
	return out, nil
}

// BalancePoint is one row of the pre-balancing study (E7): AIG-style
// conjunction balancing before mapping.
type BalancePoint struct {
	Circuit                   string
	PlainDepth, BalancedDepth int
	PlainDelay, BalancedDelay float64
}

// BalanceStudy maps each circuit with DAG covering on the raw and on
// the balanced subject graph.
func BalanceStudy(spec TableSpec, circuits []bench.Circuit) ([]BalancePoint, error) {
	shared, _, err := subject.CompileLibrary(spec.Library, subject.CompileOptions{Share: true})
	if err != nil {
		return nil, err
	}
	m := match.NewMatcher(shared)
	var out []BalancePoint
	for _, c := range circuits {
		g, err := subject.FromNetwork(c.Network)
		if err != nil {
			return nil, err
		}
		bg, err := resynth.Balance(g)
		if err != nil {
			return nil, err
		}
		plain, err := core.Map(g, m, core.Options{Class: match.Standard, Delay: spec.Delay})
		if err != nil {
			return nil, err
		}
		bal, err := core.Map(bg, m, core.Options{Class: match.Standard, Delay: spec.Delay})
		if err != nil {
			return nil, err
		}
		out = append(out, BalancePoint{
			Circuit:       c.Name,
			PlainDepth:    g.Depth(),
			BalancedDepth: bg.Depth(),
			PlainDelay:    plain.Delay,
			BalancedDelay: bal.Delay,
		})
	}
	return out, nil
}

// ChoicePoint is one row of the mapping-graph study (E8): choices
// combine multiple decompositions in one subject graph, the direction
// the paper's §4 closes with.
type ChoicePoint struct {
	Circuit       string
	BalancedDelay float64
	ChainDelay    float64
	ChoiceDelay   float64
	ChoiceNodes   int
}

// ChoiceStudy maps each circuit three ways: balanced-only subject
// graph, chain-only, and the choice-encoded union of both.
func ChoiceStudy(spec TableSpec, circuits []bench.Circuit) ([]ChoicePoint, error) {
	pats, _, err := subject.CompileLibrary(spec.Library, subject.CompileOptions{Share: true})
	if err != nil {
		return nil, err
	}
	base := match.NewMatcher(pats)
	var out []ChoicePoint
	for _, c := range circuits {
		p := ChoicePoint{Circuit: c.Name}
		for _, chain := range []bool{false, true} {
			g, err := subject.FromNetworkChained(c.Network, chain)
			if err != nil {
				return nil, err
			}
			res, err := core.Map(g, base, core.Options{Class: match.Standard, Delay: spec.Delay})
			if err != nil {
				return nil, err
			}
			if chain {
				p.ChainDelay = res.Delay
			} else {
				p.BalancedDelay = res.Delay
			}
		}
		g, choices, err := subject.FromNetworkWithChoices(c.Network)
		if err != nil {
			return nil, err
		}
		cm := base.Clone()
		cm.SetChoices(choices)
		res, err := core.Map(g, cm, core.Options{Class: match.Standard, Delay: spec.Delay})
		if err != nil {
			return nil, err
		}
		p.ChoiceDelay = res.Delay
		p.ChoiceNodes = g.NumNodes()
		out = append(out, p)
	}
	return out, nil
}

// SupergatePoint is one row of the supergate study (E9): enriching a
// small library with two-gate composites priced with a merged-cell
// discount recovers much of a hand-designed rich library's advantage.
type SupergatePoint struct {
	Circuit    string
	BaseDelay  float64
	SuperDelay float64
	BaseGates  int
	SuperGates int
}

// SupergateStudy maps each circuit with lib2 and with lib2 extended
// by supergates (input cap 5, merged-cell discount 0.85).
func SupergateStudy(circuits []bench.Circuit) ([]SupergatePoint, error) {
	base := libgen.Lib2()
	super := libgen.Supergates(base, 5, 0.85)
	basePats, _, err := subject.CompileLibrary(base, subject.CompileOptions{Share: true})
	if err != nil {
		return nil, err
	}
	superPats, _, err := subject.CompileLibrary(super, subject.CompileOptions{Share: true})
	if err != nil {
		return nil, err
	}
	baseM := match.NewMatcher(basePats)
	superM := match.NewMatcher(superPats)
	var out []SupergatePoint
	for _, c := range circuits {
		g, err := subject.FromNetwork(c.Network)
		if err != nil {
			return nil, err
		}
		b, err := core.Map(g, baseM, core.Options{Class: match.Standard})
		if err != nil {
			return nil, err
		}
		s, err := core.Map(g, superM, core.Options{Class: match.Standard})
		if err != nil {
			return nil, err
		}
		out = append(out, SupergatePoint{
			Circuit:    c.Name,
			BaseDelay:  b.Delay,
			SuperDelay: s.Delay,
			BaseGates:  len(base.Gates),
			SuperGates: len(super.Gates),
		})
	}
	return out, nil
}

// SupergateRichnessPoint is one row of the richness-trend study
// (E12): 44-1, 44-1 expanded by the supergate generator, and 44-3
// side by side under unit delay. GapClosed is the fraction of the
// 44-1 vs 44-3 delay gap that the supergates recover, in percent.
type SupergateRichnessPoint struct {
	Circuit    string
	Delay441   float64
	DelaySuper float64
	Delay443   float64
	Area441    float64
	AreaSuper  float64
	Area443    float64
	GapClosed  float64
}

// SupergateRichness reproduces the paper's richness trend with
// manufactured richness: each circuit is DAG-mapped under unit delay
// with 44-1, with 44-1 enriched by internal/supergate, and with the
// hand-built 44-3. Every supergate mapping is verified against its
// source network before its numbers are reported. The returned
// supergate stats describe the one generation run shared by all
// circuits.
func SupergateRichness(circuits []bench.Circuit, opt supergate.Options) ([]SupergateRichnessPoint, supergate.Stats, error) {
	res, err := supergate.Generate(libgen.Lib441(), opt)
	if err != nil {
		return nil, supergate.Stats{}, err
	}
	matchers := make([]*match.Matcher, 3)
	for i, lib := range []*genlib.Library{libgen.Lib441(), res.Library, libgen.Lib443()} {
		pats, _, err := subject.CompileLibrary(lib, subject.CompileOptions{Share: true})
		if err != nil {
			return nil, res.Stats, err
		}
		matchers[i] = match.NewMatcher(pats)
	}
	var out []SupergateRichnessPoint
	for _, c := range circuits {
		g, err := subject.FromNetwork(c.Network)
		if err != nil {
			return nil, res.Stats, err
		}
		var r [3]*core.Result
		for i, m := range matchers {
			r[i], err = core.Map(g, m, core.Options{Class: match.Standard, Delay: genlib.UnitDelay{}})
			if err != nil {
				return nil, res.Stats, err
			}
		}
		if err := verify.Mapped(c.Network, r[1].Netlist, verify.Options{}); err != nil {
			return nil, res.Stats, fmt.Errorf("%s: supergate mapping failed equivalence check: %v", c.Name, err)
		}
		p := SupergateRichnessPoint{
			Circuit:    c.Name,
			Delay441:   r[0].Delay,
			DelaySuper: r[1].Delay,
			Delay443:   r[2].Delay,
			Area441:    r[0].Netlist.Area(),
			AreaSuper:  r[1].Netlist.Area(),
			Area443:    r[2].Netlist.Area(),
		}
		if gap := p.Delay441 - p.Delay443; gap > 0 {
			p.GapClosed = 100 * (p.Delay441 - p.DelaySuper) / gap
		}
		out = append(out, p)
	}
	return out, res.Stats, nil
}

// FormatCSV renders rows as comma-separated values with a header,
// for spreadsheet import.
func FormatCSV(spec TableSpec, rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "table,circuit,subject_nodes,tree_delay,dag_delay,tree_area,dag_area,tree_cpu_ms,dag_cpu_ms,dag_cpu_par_ms,duplicated,label_ms,cover_ms,emit_ms,verify_ms\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%s,%d,%g,%g,%g,%g,%.3f,%.3f,%.3f,%d,%.3f,%.3f,%.3f,%.3f\n",
			spec.ID, r.Circuit, r.SubjectNodes, r.TreeDelay, r.DAGDelay,
			r.TreeArea, r.DAGArea,
			float64(r.TreeCPU.Microseconds())/1000,
			float64(r.DAGCPU.Microseconds())/1000,
			float64(r.DAGCPUPar.Microseconds())/1000,
			r.Duplicated,
			float64(r.Phases.Label.Microseconds())/1000,
			float64(r.Phases.Cover.Microseconds())/1000,
			float64(r.Phases.Emit.Microseconds())/1000,
			float64(r.Phases.Verify.Microseconds())/1000)
	}
	return b.String()
}

// TradeoffLibPoint is one step of the library-mapping area/delay
// trade-off (E10): the extension the paper's conclusion announces.
type TradeoffLibPoint struct {
	SlackPercent int
	Delay        float64
	Area         float64
}

// LibraryTradeoff maps one circuit with DAG covering and area
// recovery under increasingly relaxed delay targets.
func LibraryTradeoff(spec TableSpec, circuit bench.Circuit, slacksPercent []int) ([]TradeoffLibPoint, error) {
	shared, _, err := subject.CompileLibrary(spec.Library, subject.CompileOptions{Share: true})
	if err != nil {
		return nil, err
	}
	m := match.NewMatcher(shared)
	g, err := subject.FromNetwork(circuit.Network)
	if err != nil {
		return nil, err
	}
	opt0, err := core.Map(g, m, core.Options{Class: match.Standard, Delay: spec.Delay})
	if err != nil {
		return nil, err
	}
	var out []TradeoffLibPoint
	for _, s := range slacksPercent {
		res, err := core.Map(g, m, core.Options{
			Class:        match.Standard,
			Delay:        spec.Delay,
			AreaRecovery: true,
			RequiredTime: opt0.Delay * (1 + float64(s)/100),
		})
		if err != nil {
			return nil, err
		}
		out = append(out, TradeoffLibPoint{SlackPercent: s, Delay: res.Delay, Area: res.Netlist.Area()})
	}
	return out, nil
}

// SeqMapPoint is one row of the sequential-mapping study (E11): the
// paper's §4 algorithm (joint mapping + retiming via retiming-aware
// labels) against the practical three-step flow.
type SeqMapPoint struct {
	Circuit     string
	K           int
	JointPeriod int
	ThreeStep   float64
	LUTs        int
	Registers   int
}

// SequentialStudy runs both sequential flows on registered circuits.
func SequentialStudy(k int) ([]SeqMapPoint, error) {
	circuits := []bench.Circuit{
		{Name: "shift8", Network: bench.ShiftRegister(8)},
		{Name: "corr8", Network: bench.Correlator(8)},
		{Name: "palu4x2", Network: bench.PipelinedALU(4, 2)},
		{Name: "palu8x2", Network: bench.PipelinedALU(8, 2)},
		{Name: "count6", Network: bench.Counter(6)},
	}
	var out []SeqMapPoint
	for _, c := range circuits {
		res, err := seqmap.Map(c.Network, seqmap.Options{K: k})
		if err != nil {
			return nil, fmt.Errorf("%s: %v", c.Name, err)
		}
		three, err := threeStepLUTPeriod(c.Network, k)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", c.Name, err)
		}
		out = append(out, SeqMapPoint{
			Circuit: c.Name, K: k,
			JointPeriod: res.Period, ThreeStep: three,
			LUTs: res.LUTs, Registers: res.Registers,
		})
	}
	return out, nil
}

// threeStepLUTPeriod maps the combinational portion with FlowMap and
// retimes the result (the practical flow).
func threeStepLUTPeriod(nw *network.Network, k int) (float64, error) {
	g, err := subject.FromNetwork(nw)
	if err != nil {
		return 0, err
	}
	fm, err := flowmap.Map(g, k)
	if err != nil {
		return 0, err
	}
	seq := network.New(nw.Name + "_3step")
	latchOut := map[string]bool{}
	for _, l := range nw.Latches() {
		latchOut[l.Output.Name] = true
	}
	for _, in := range fm.Network.Inputs() {
		if latchOut[in.Name] {
			if _, err := seq.AddLatchOutput(in.Name); err != nil {
				return 0, err
			}
			continue
		}
		if _, err := seq.AddInput(in.Name); err != nil {
			return 0, err
		}
	}
	topo, err := fm.Network.TopoSort()
	if err != nil {
		return 0, err
	}
	for _, n := range topo {
		if n.Func == nil {
			continue
		}
		var names []string
		for _, fi := range n.Fanins {
			names = append(names, fi.Name)
		}
		if _, err := seq.AddNode(n.Name, names, n.Func.Clone()); err != nil {
			return 0, err
		}
	}
	for _, l := range nw.Latches() {
		if _, err := seq.ConnectLatch(l.Input.Name, l.Output.Name, l.Init); err != nil {
			return 0, err
		}
	}
	for _, o := range nw.Outputs() {
		if err := seq.MarkOutput(o.Name); err != nil {
			return 0, err
		}
	}
	p, _, err := retime.MinPeriod(seq, retime.UnitDelays)
	return p, err
}
