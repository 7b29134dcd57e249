// Package experiments regenerates the paper's evaluation: Tables 1-3
// (tree vs DAG covering under lib2, 44-1 and 44-3), the Figure 1/2
// demonstrations, and the ablations listed in DESIGN.md. It is shared
// by cmd/experiments and the repository's benchmark harness. Every
// mapping runs through dagcover.Map; the one exception is study A4
// (decomp.go), which needs chain-compiled patterns.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"dagcover"
	"dagcover/internal/bench"
	"dagcover/internal/genlib"
	"dagcover/internal/libgen"
	"dagcover/internal/mapping"
	"dagcover/internal/network"
	"dagcover/internal/subject"
)

// Row is one line of a tree-vs-DAG table.
type Row struct {
	Circuit             string
	SubjectNodes        int
	TreeDelay, DAGDelay float64
	TreeArea, DAGArea   float64
	TreeCPU, DAGCPU     time.Duration
	Duplicated          int
	// Phases breaks the row's work down by pipeline phase.
	Phases RowPhases
}

// RowPhases is the per-phase wall-time breakdown of one row: where
// the tree run, the DAG run, and verification each spent their time.
type RowPhases struct {
	// TreeCover is the tree-covering DP (plus emission) time.
	TreeCover time.Duration
	// Label, Cover and Emit split the DAG run.
	Label, Cover, Emit time.Duration
	// Verify is the simulation-verification time (0 without -verify).
	Verify time.Duration
}

// TableSpec describes one of the paper's tables.
type TableSpec struct {
	ID      string
	Library *dagcover.Library
	Delay   dagcover.DelayModel
}

// Table1 is tree vs DAG under the lib2-like library with intrinsic
// delays (paper Table 1).
func Table1() TableSpec {
	return TableSpec{ID: "1", Library: dagcover.Lib2(), Delay: dagcover.IntrinsicDelay}
}

// Table2 is tree vs DAG under the 7-gate 44-1 library with unit delay
// (paper Table 2).
func Table2() TableSpec {
	return TableSpec{ID: "2", Library: dagcover.Lib441(), Delay: dagcover.UnitDelay}
}

// Table3 is tree vs DAG under the rich 44-3 library with unit delay
// (paper Table 3).
func Table3() TableSpec {
	return TableSpec{ID: "3", Library: dagcover.Lib443(), Delay: dagcover.UnitDelay}
}

// Options tunes a run.
type Options struct {
	// Verify functionally checks every mapping (slower).
	Verify bool
	// Class is the DAG-covering match class (default standard,
	// footnote 3).
	Class dagcover.MatchClass
	// Circuits overrides the benchmark set (default bench.Suite()).
	Circuits []bench.Circuit
	// Memo turns on each mapping run's structural match memo
	// (MapOptions.NoMemo is its negation). Mapped results are
	// identical either way; the memo only changes run time.
	Memo bool
	// Trace, when non-nil, records every mapping run's phase spans.
	Trace *dagcover.Trace
}

// mapSubject maps a prebuilt subject graph through the facade.
func mapSubject(g *dagcover.SubjectGraph, opt dagcover.MapOptions) (*dagcover.MapResult, error) {
	return dagcover.Map(context.Background(), dagcover.Input{Subject: g}, opt)
}

// millis converts a PhaseBreakdown field back to a duration.
func millis(ms float64) time.Duration { return time.Duration(ms * 1e6) }

// Run executes a table.
func Run(spec TableSpec, opt Options) ([]Row, error) {
	circuits := opt.Circuits
	if circuits == nil {
		circuits = bench.Suite()
	}
	cl, err := dagcover.CompileLibrary(spec.Library)
	if err != nil {
		return nil, err
	}
	dagOpt := dagcover.MapOptions{Library: cl, Class: opt.Class, Delay: spec.Delay, NoMemo: !opt.Memo, Trace: opt.Trace}
	treeOpt := dagOpt
	treeOpt.Mode = dagcover.ModeTree

	var rows []Row
	for _, c := range circuits {
		g, err := dagcover.BuildSubject(c.Network)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", c.Name, err)
		}
		row := Row{Circuit: c.Name, SubjectNodes: g.NumNodes()}

		tres, err := mapSubject(g, treeOpt)
		if err != nil {
			return nil, fmt.Errorf("%s: tree: %v", c.Name, err)
		}
		row.TreeCPU = tres.CPU
		row.TreeDelay = tres.Delay
		row.TreeArea = tres.Area
		row.Phases.TreeCover = millis(tres.Phases.CoverMillis + tres.Phases.EmitMillis)

		dres, err := mapSubject(g, dagOpt)
		if err != nil {
			return nil, fmt.Errorf("%s: DAG: %v", c.Name, err)
		}
		row.DAGCPU = dres.CPU
		row.DAGDelay = dres.Delay
		row.DAGArea = dres.Area
		row.Duplicated = dres.DuplicatedNodes
		row.Phases.Label = millis(dres.Phases.LabelMillis)
		row.Phases.Cover = millis(dres.Phases.CoverMillis)
		row.Phases.Emit = millis(dres.Phases.EmitMillis)

		if opt.Verify {
			vSpan := opt.Trace.Start("experiments.verify")
			vStart := time.Now()
			if err := dagcover.Verify(c.Network, tres.Netlist); err != nil {
				return nil, fmt.Errorf("%s: tree mapping wrong: %v", c.Name, err)
			}
			if err := dagcover.Verify(c.Network, dres.Netlist); err != nil {
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
// label/cover phase split appended. When any row was verified, a
// "verify" column is appended.
func Format(spec TableSpec, rows []Row) string {
	verified := false
	for _, r := range rows {
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
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %8d | %9.2f %9.2f | %10.0f %10.0f | %9s %9s | %5d | %6.1fms %6.1fms",
			r.Circuit, r.SubjectNodes, r.TreeDelay, r.DAGDelay, r.TreeArea, r.DAGArea,
			r.TreeCPU.Round(time.Millisecond), r.DAGCPU.Round(time.Millisecond), r.Duplicated,
			ms(r.Phases.Label), ms(r.Phases.Cover))
		if verified {
			fmt.Fprintf(&b, " %6.1fms", ms(r.Phases.Verify))
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
	g, err := dagcover.BuildSubject(circuit.Network)
	if err != nil {
		return nil, err
	}
	for gs := 1; gs <= 4; gs++ {
		lib := libgen.Rich(fmt.Sprintf("rich-%d", gs), libgen.RichOptions{MaxGroupSize: gs})
		cl, err := dagcover.CompileLibrary(lib)
		if err != nil {
			return nil, err
		}
		tres, err := mapSubject(g, dagcover.MapOptions{Mode: dagcover.ModeTree, Library: cl, Delay: dagcover.UnitDelay})
		if err != nil {
			return nil, err
		}
		dres, err := mapSubject(g, dagcover.MapOptions{Library: cl, Delay: dagcover.UnitDelay})
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
	cl, err := dagcover.CompileLibrary(spec.Library)
	if err != nil {
		return nil, err
	}
	var out []MatchClassPoint
	for _, c := range circuits {
		g, err := dagcover.BuildSubject(c.Network)
		if err != nil {
			return nil, err
		}
		p := MatchClassPoint{Circuit: c.Name}
		std, err := mapSubject(g, dagcover.MapOptions{Library: cl, Class: dagcover.MatchStandard, Delay: spec.Delay})
		if err != nil {
			return nil, err
		}
		p.StandardCPU = std.CPU
		p.StandardDelay = std.Delay
		ext, err := mapSubject(g, dagcover.MapOptions{Library: cl, Class: dagcover.MatchExtended, Delay: spec.Delay})
		if err != nil {
			return nil, err
		}
		p.ExtendedCPU = ext.CPU
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
	cl, err := dagcover.CompileLibrary(spec.Library)
	if err != nil {
		return nil, err
	}
	var out []AreaRecoveryPoint
	for _, c := range circuits {
		g, err := dagcover.BuildSubject(c.Network)
		if err != nil {
			return nil, err
		}
		plain, err := mapSubject(g, dagcover.MapOptions{Library: cl, Delay: spec.Delay})
		if err != nil {
			return nil, err
		}
		rec, err := mapSubject(g, dagcover.MapOptions{Library: cl, Delay: spec.Delay, AreaRecovery: true})
		if err != nil {
			return nil, err
		}
		if rec.Delay > plain.Delay+1e-9 {
			return nil, fmt.Errorf("%s: area recovery changed delay %v -> %v", c.Name, plain.Delay, rec.Delay)
		}
		out = append(out, AreaRecoveryPoint{
			Circuit:       c.Name,
			Delay:         plain.Delay,
			PlainArea:     plain.Area,
			RecoveredArea: rec.Area,
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
	if spec.Library.Buffer() == nil {
		return nil, fmt.Errorf("experiments: library %q has no buffer gate", spec.Library.Name)
	}
	cl, err := dagcover.CompileLibrary(spec.Library)
	if err != nil {
		return nil, err
	}
	var out []BufferingPoint
	for _, c := range circuits {
		g, err := dagcover.BuildSubject(c.Network)
		if err != nil {
			return nil, err
		}
		res, err := mapSubject(g, dagcover.MapOptions{Library: cl, Delay: spec.Delay})
		if err != nil {
			return nil, err
		}
		before, err := dagcover.LoadTiming(res.Netlist, 0)
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
			LoadedBefore: before,
			LoadedAfter:  before, // no buffering is a valid choice
		}
		for _, bound := range bounds {
			buffered, err := dagcover.InsertBuffers(res.Netlist, spec.Library, bound)
			if err != nil {
				return nil, err
			}
			after, err := dagcover.LoadTiming(buffered, 0)
			if err != nil {
				return nil, err
			}
			if after < best.LoadedAfter {
				best.LoadedAfter = after
				best.Buffers = buffered.NumCells() - res.Cells
				best.MaxFanout = bound
			}
		}
		out = append(out, best)
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
	g, err := dagcover.BuildSubject(circuit.Network)
	if err != nil {
		return nil, err
	}
	var out []TradeoffPoint
	for slack := 0; slack <= maxSlack; slack++ {
		res, err := mapSubject(g, dagcover.MapOptions{Mode: dagcover.ModeLUTArea, K: k, Slack: slack})
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

	baseCL, err := dagcover.CompileLibrary(base)
	if err != nil {
		return nil, err
	}
	sizedCL, err := dagcover.CompileLibrary(sizedLib)
	if err != nil {
		return nil, err
	}

	var out []SizingPoint
	for _, c := range circuits {
		g, err := dagcover.BuildSubject(c.Network)
		if err != nil {
			return nil, err
		}
		res, err := mapSubject(g, dagcover.MapOptions{Library: baseCL, Delay: dagcover.IntrinsicDelay})
		if err != nil {
			return nil, err
		}
		p := SizingPoint{Circuit: c.Name, Intrinsic: res.Delay, BaseMatches: res.MatchesEnumerated}
		if p.LoadedBefore, err = dagcover.LoadTiming(res.Netlist, 0); err != nil {
			return nil, err
		}
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
		if p.LoadedAfter, err = dagcover.LoadTiming(sizedNl, 0); err != nil {
			return nil, err
		}
		p.Swaps = swaps
		// Direct mapping with the expanded library: same intrinsic
		// quality (block delays are size-independent), triple the
		// matching work.
		sres, err := mapSubject(g, dagcover.MapOptions{Library: sizedCL, Delay: dagcover.IntrinsicDelay})
		if err != nil {
			return nil, err
		}
		p.SizedMatches = sres.MatchesEnumerated
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
		g, err := dagcover.BuildSubject(circuits[i].Network)
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
	cl, err := dagcover.CompileLibrary(spec.Library)
	if err != nil {
		return nil, err
	}
	opt := dagcover.MapOptions{Library: cl, Delay: spec.Delay}
	var out []BalancePoint
	for _, c := range circuits {
		g, err := dagcover.BuildSubject(c.Network)
		if err != nil {
			return nil, err
		}
		bg, err := dagcover.BalanceSubject(g)
		if err != nil {
			return nil, err
		}
		plain, err := mapSubject(g, opt)
		if err != nil {
			return nil, err
		}
		bal, err := mapSubject(bg, opt)
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
	cl, err := dagcover.CompileLibrary(spec.Library)
	if err != nil {
		return nil, err
	}
	opt := dagcover.MapOptions{Library: cl, Delay: spec.Delay}
	var out []ChoicePoint
	for _, c := range circuits {
		p := ChoicePoint{Circuit: c.Name}
		for _, chain := range []bool{false, true} {
			g, err := subject.FromNetworkChained(c.Network, chain)
			if err != nil {
				return nil, err
			}
			res, err := mapSubject(g, opt)
			if err != nil {
				return nil, err
			}
			if chain {
				p.ChainDelay = res.Delay
			} else {
				p.BalancedDelay = res.Delay
			}
		}
		copt := opt
		copt.Mode = dagcover.ModeChoices
		res, err := dagcover.Map(context.Background(), dagcover.Input{Network: c.Network}, copt)
		if err != nil {
			return nil, err
		}
		p.ChoiceDelay = res.Delay
		p.ChoiceNodes = res.SubjectNodes
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
	baseCL, err := dagcover.CompileLibrary(base)
	if err != nil {
		return nil, err
	}
	superCL, err := dagcover.CompileLibrary(super)
	if err != nil {
		return nil, err
	}
	var out []SupergatePoint
	for _, c := range circuits {
		g, err := dagcover.BuildSubject(c.Network)
		if err != nil {
			return nil, err
		}
		b, err := mapSubject(g, dagcover.MapOptions{Library: baseCL})
		if err != nil {
			return nil, err
		}
		s, err := mapSubject(g, dagcover.MapOptions{Library: superCL})
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
func SupergateRichness(circuits []bench.Circuit, opt dagcover.SupergateOptions) ([]SupergateRichnessPoint, dagcover.SupergateStats, error) {
	expanded, stats, err := dagcover.ExpandSupergates(dagcover.Lib441(), opt)
	if err != nil {
		return nil, stats, err
	}
	libs := make([]*dagcover.CompiledLibrary, 3)
	for i, lib := range []*dagcover.Library{dagcover.Lib441(), expanded, dagcover.Lib443()} {
		if libs[i], err = dagcover.CompileLibrary(lib); err != nil {
			return nil, stats, err
		}
	}
	var out []SupergateRichnessPoint
	for _, c := range circuits {
		g, err := dagcover.BuildSubject(c.Network)
		if err != nil {
			return nil, stats, err
		}
		var r [3]*dagcover.MapResult
		for i, cl := range libs {
			r[i], err = mapSubject(g, dagcover.MapOptions{Library: cl, Delay: dagcover.UnitDelay})
			if err != nil {
				return nil, stats, err
			}
		}
		if err := dagcover.Verify(c.Network, r[1].Netlist); err != nil {
			return nil, stats, fmt.Errorf("%s: supergate mapping failed equivalence check: %v", c.Name, err)
		}
		p := SupergateRichnessPoint{
			Circuit:    c.Name,
			Delay441:   r[0].Delay,
			DelaySuper: r[1].Delay,
			Delay443:   r[2].Delay,
			Area441:    r[0].Area,
			AreaSuper:  r[1].Area,
			Area443:    r[2].Area,
		}
		if gap := p.Delay441 - p.Delay443; gap > 0 {
			p.GapClosed = 100 * (p.Delay441 - p.DelaySuper) / gap
		}
		out = append(out, p)
	}
	return out, stats, nil
}

// FormatCSV renders rows as comma-separated values with a header,
// for spreadsheet import.
func FormatCSV(spec TableSpec, rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "table,circuit,subject_nodes,tree_delay,dag_delay,tree_area,dag_area,tree_cpu_ms,dag_cpu_ms,duplicated,label_ms,cover_ms,emit_ms,verify_ms\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%s,%d,%g,%g,%g,%g,%.3f,%.3f,%d,%.3f,%.3f,%.3f,%.3f\n",
			spec.ID, r.Circuit, r.SubjectNodes, r.TreeDelay, r.DAGDelay,
			r.TreeArea, r.DAGArea,
			float64(r.TreeCPU.Microseconds())/1000,
			float64(r.DAGCPU.Microseconds())/1000,
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
	cl, err := dagcover.CompileLibrary(spec.Library)
	if err != nil {
		return nil, err
	}
	g, err := dagcover.BuildSubject(circuit.Network)
	if err != nil {
		return nil, err
	}
	opt := dagcover.MapOptions{Library: cl, Delay: spec.Delay}
	opt0, err := mapSubject(g, opt)
	if err != nil {
		return nil, err
	}
	opt.AreaRecovery = true
	var out []TradeoffLibPoint
	for _, s := range slacksPercent {
		opt.RequiredTime = opt0.Delay * (1 + float64(s)/100)
		res, err := mapSubject(g, opt)
		if err != nil {
			return nil, err
		}
		out = append(out, TradeoffLibPoint{SlackPercent: s, Delay: res.Delay, Area: res.Area})
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
		res, err := dagcover.MapSequentialLUT(c.Network, k)
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
func threeStepLUTPeriod(nw *dagcover.Network, k int) (float64, error) {
	fm, err := dagcover.Map(context.Background(), dagcover.Input{Network: nw}, dagcover.MapOptions{Mode: dagcover.ModeLUT, K: k})
	if err != nil {
		return 0, err
	}
	seq, err := network.ReattachLatches(fm.Network, nw)
	if err != nil {
		return 0, err
	}
	return dagcover.MinPeriod(seq, nil)
}
