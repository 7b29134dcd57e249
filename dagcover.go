// Package dagcover is a library-based technology mapper implementing
// "Delay-Optimal Technology Mapping by DAG Covering" (Kukimoto,
// Brayton, Sawkar, DAC 1998), together with the systems the paper
// builds on: Keutzer/Rudell subject-graph construction and pattern
// matching, conventional tree covering (the baseline), the FlowMap
// k-LUT mapper (§2), and Leiserson-Saxe retiming for the sequential
// extension (§4).
//
// Quick start:
//
//	cl, _ := dagcover.CompileLibrary(dagcover.Lib2())
//	nw, _ := dagcover.ParseBLIF(file)
//	res, _ := dagcover.Map(ctx, dagcover.Input{Network: nw}, dagcover.MapOptions{Library: cl})
//	fmt.Println(res.Delay, res.Area)
//
// Map is the one entry point for combinational mapping: MapOptions.Mode
// picks DAG covering (the paper), choice-aware DAG covering, tree
// covering (min delay or min area) or k-LUT mapping (FlowMap or
// priority cuts). MapSequential and MapSequentialLUT map latched
// networks.
//
// See the examples/ directory for runnable programs and DESIGN.md for
// the system inventory.
package dagcover

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

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
	"dagcover/internal/sta"
	"dagcover/internal/store"
	"dagcover/internal/subject"
	"dagcover/internal/supergate"
	"dagcover/internal/treemap"
	"dagcover/internal/verify"

	blifpkg "dagcover/internal/blif"
)

// Re-exported types: the facade works in terms of these.
type (
	// Network is a technology-independent Boolean network.
	Network = network.Network
	// Library is a genlib gate library.
	Library = genlib.Library
	// Gate is a library cell.
	Gate = genlib.Gate
	// Netlist is a technology-mapped circuit.
	Netlist = mapping.Netlist
	// DelayModel maps (gate, pin) to a pin-to-output delay.
	DelayModel = genlib.DelayModel
	// SubjectGraph is a NAND2/INV decomposition of a network.
	SubjectGraph = subject.Graph
	// MatchClass selects the matching semantics (Definitions 1-3).
	MatchClass = match.Class
	// Trace records named spans across a mapping pipeline and exports
	// them as Chrome trace_event JSON (chrome://tracing, Perfetto).
	// A nil *Trace is valid everywhere and records nothing.
	Trace = obs.Trace
)

// NewTrace returns an enabled trace collector. Pass it via
// MapOptions.Trace, then export with Trace.WriteFile or
// Trace.WriteChromeTrace.
func NewTrace() *Trace { return obs.New() }

// Match classes (paper Definitions 1-3).
const (
	// MatchExact confines matches to fanout-free regions: tree
	// covering semantics.
	MatchExact = match.Exact
	// MatchStandard is the paper's default for DAG covering.
	MatchStandard = match.Standard
	// MatchExtended additionally allows subject-node duplication
	// during matching (Figure 1).
	MatchExtended = match.Extended
)

// Delay models.
var (
	// IntrinsicDelay uses genlib block delays with zero load terms
	// (the paper's model, footnote 4).
	IntrinsicDelay DelayModel = genlib.IntrinsicDelay{}
	// UnitDelay charges one unit per gate (the 44-1/44-3 tables).
	UnitDelay DelayModel = genlib.UnitDelay{}
)

// Built-in libraries (synthesized stand-ins for the MCNC libraries;
// see DESIGN.md §4).
func Lib2() *Library   { return libgen.Lib2() }
func Lib441() *Library { return libgen.Lib441() }
func Lib443() *Library { return libgen.Lib443() }

// builtinLibraries is the one table of built-in libraries by name.
var builtinLibraries = map[string]func() *Library{"lib2": Lib2, "44-1": Lib441, "44-3": Lib443}

// BuiltinLibrary looks up a built-in library by name (lib2, 44-1 or
// 44-3). It returns the library's constructor, each call of which
// builds a fresh copy, so checking a name builds nothing; ok is false
// when no built-in has that name.
func BuiltinLibrary(name string) (build func() *Library, ok bool) {
	build, ok = builtinLibraries[name]
	return build, ok
}

// OpenLibrary returns the built-in library called name, or else parses
// the genlib file at path name. It is how the command-line tools read
// their -lib flag.
func OpenLibrary(name string) (*Library, error) {
	if build, ok := BuiltinLibrary(name); ok {
		return build(), nil
	}
	f, err := os.Open(name)
	if err != nil {
		return nil, fmt.Errorf("library %q is not built in and could not be opened: %v", name, err)
	}
	defer f.Close()
	return LoadLibrary(name, f)
}

// LoadLibrary parses a genlib library.
func LoadLibrary(name string, r io.Reader) (*Library, error) { return genlib.Parse(name, r) }

// WriteLibrary emits a library as genlib text.
func WriteLibrary(w io.Writer, lib *Library) error { return genlib.Write(w, lib) }

// ParseBLIF reads a Boolean network in BLIF format (.names/.latch).
func ParseBLIF(r io.Reader) (*Network, error) { return (&blifpkg.Reader{}).Parse(r) }

// ParseMappedBLIF reads BLIF that may contain .gate constructs
// resolved against lib.
func ParseMappedBLIF(r io.Reader, lib *Library) (*Network, error) {
	return (&blifpkg.Reader{Gates: lib}).Parse(r)
}

// WriteBLIF emits a network in BLIF format.
func WriteBLIF(w io.Writer, nw *Network) error { return blifpkg.Write(w, nw) }

// StreamSubjectBLIF reads one flat BLIF model and technology-
// decomposes it into a subject graph on the fly, without building the
// intermediate Network. Models outside the streaming subset
// (hierarchy, latches, forward references) fail with
// blif.ErrNeedsAST; use ReadSubjectBLIF for transparent fallback.
func StreamSubjectBLIF(r io.Reader) (*SubjectGraph, error) {
	return (&blifpkg.Reader{}).StreamSubject(r)
}

// ReadSubjectBLIF reads one BLIF model into exactly the subject graph
// BuildSubject(ParseBLIF(r)) returns — same nodes, same numbering,
// same digest — or into exactly its error. It streams the model when
// streaming provably yields that graph, streams it again with its
// declarations in the AST reader's order when only the order was
// wrong, and re-reads r through the AST parser otherwise, so a flat
// model whose names are declared before use never builds the
// intermediate Network.
func ReadSubjectBLIF(r io.ReadSeeker) (*SubjectGraph, error) {
	return (&blifpkg.Reader{ASTOrder: true}).ReadSubject(r)
}

// ReadSubjectBLIFFile reads the BLIF file at path into a subject
// graph, streaming flat models and falling back to the AST parser for
// the rest. Streamed graphs keep declaration-order node numbering, so
// for a model the AST reader numbers differently its graph is
// structurally equal to ReadSubjectBLIF's but its digest may differ.
// That keeps million-gate files off the AST reader: every generated
// mult<N> and alumesh<WxH> family declares its logic out of the AST
// reader's order.
func ReadSubjectBLIFFile(path string) (*SubjectGraph, error) {
	return (&blifpkg.Reader{}).ReadSubjectFile(path)
}

// BuildSubject technology-decomposes a network into its NAND2/INV
// subject graph (deterministic, structurally hashed).
func BuildSubject(nw *Network) (*SubjectGraph, error) { return subject.FromNetwork(nw) }

// BalanceSubject re-associates single-fanout conjunction chains into
// level-balanced trees (AIG-style balancing), reducing subject depth
// — and therefore the mapped-delay bound — without changing the
// function. Map the balanced graph (Input.Subject) for a
// technology-independent head start.
func BalanceSubject(g *SubjectGraph) (*SubjectGraph, error) { return resynth.Balance(g) }

// Mode selects the mapping algorithm behind Map.
type Mode int

const (
	// ModeDAG is delay-optimal DAG covering, the paper's algorithm.
	ModeDAG Mode = iota
	// ModeChoices is DAG covering over a choice-encoded subject graph:
	// every network node is decomposed both balanced and as a chain into
	// one shared graph (a light version of Lehman et al.'s mapping
	// graphs, §4), and matching may realize either alternative. Never
	// slower than ModeDAG on either single decomposition; costs roughly
	// twice the subject size. It decomposes the network itself, so it
	// needs Input.Network.
	ModeChoices
	// ModeTree is conventional tree covering for minimum delay, the
	// baseline of Tables 1-3.
	ModeTree
	// ModeTreeArea is tree covering with Keutzer's minimum-area
	// objective.
	ModeTreeArea
	// ModeLUT maps onto K-input LUTs with FlowMap (§2), depth-optimal.
	ModeLUT
	// ModeLUTArea maps onto K-input LUTs by priority-cut enumeration,
	// minimizing LUT count under a depth bound of optimal depth plus
	// Slack (Cong & Ding [3]).
	ModeLUTArea
)

var modeNames = [...]string{"dag", "choices", "tree", "tree-area", "lut", "lut-area"}

func (m Mode) String() string {
	if m >= 0 && int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// lut reports whether the mode maps onto LUTs rather than library gates.
func (m Mode) lut() bool { return m == ModeLUT || m == ModeLUTArea }

// ParseMode reads a mode name as Mode.String prints it; "" is ModeDAG.
func ParseMode(s string) (Mode, error) {
	if s == "" {
		return ModeDAG, nil
	}
	for i, name := range modeNames {
		if s == name {
			return Mode(i), nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q", s)
}

// ParseDelayModel reads a delay model name ("intrinsic" or "unit", as
// DelayModel.Name prints it); "" is IntrinsicDelay.
func ParseDelayModel(s string) (DelayModel, error) {
	for _, dm := range []DelayModel{IntrinsicDelay, UnitDelay} {
		if s == dm.Name() || s == "" {
			return dm, nil
		}
	}
	return nil, fmt.Errorf("unknown delay model %q", s)
}

// ParseMatchClass reads a DAG-covering match class ("standard" or
// "extended"); "" is MatchStandard. Exact matches are tree covering's
// semantics and are selected by ModeTree, not by name.
func ParseMatchClass(s string) (MatchClass, error) {
	for _, c := range []MatchClass{MatchStandard, MatchExtended} {
		if s == c.String() || s == "" {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown match class %q", s)
}

// Input is what Map covers: a technology-independent network or a
// subject graph already built from one (BuildSubject,
// StreamSubjectBLIF, BalanceSubject). Set exactly one field.
type Input struct {
	Network *Network
	Subject *SubjectGraph
}

// MapOptions configures Map. The zero value plus a Library is the
// paper's default configuration: DAG covering, standard matches,
// intrinsic delay model.
type MapOptions struct {
	// Mode is the mapping algorithm (default ModeDAG).
	Mode Mode
	// Library is the compiled gate library. Gate modes (dag, choices,
	// tree, tree-area) require it; LUT modes reject it.
	Library *CompiledLibrary
	// K is the LUT input count for the LUT modes.
	K int
	// Slack is the depth the lut-area mode may spend above optimal.
	Slack int
	// Class is the match class for dag and choices; the zero value
	// means MatchStandard (footnote 3). Tree modes always match exactly.
	Class MatchClass
	// Delay is the delay model of the gate modes; defaults to
	// IntrinsicDelay.
	Delay DelayModel
	// Arrivals optionally gives primary-input arrival times.
	Arrivals map[string]float64
	// AreaRecovery relaxes off-critical nodes to smaller gates
	// without giving up the delay target (dag and choices).
	AreaRecovery bool
	// RequiredTime relaxes the AreaRecovery delay target above the
	// optimum (0 or below-optimal values mean delay-optimal); the
	// area/delay trade-off of the paper's conclusion.
	RequiredTime float64
	// Parallelism is not read: labeling is one serial pass. To use
	// several cores, run several Map calls at once; they may share a
	// CompiledLibrary and an Input.Subject.
	//
	// Deprecated: ignored; labeling is serial.
	Parallelism int
	// Trace, when non-nil, records the mapping phases (labeling, area
	// estimation, covering, emission) as spans.
	// Tracing never changes the mapped result.
	Trace *Trace
	// NoMemo turns off this run's structural match memo (canonical
	// cone keys → replayable match recipes, recorded and replayed
	// within the run; see DESIGN.md). The memo replays exactly the
	// enumeration it recorded, so the netlist is byte-identical either
	// way: this is an escape hatch and a baseline for measurement.
	NoMemo bool
}

// MapResult reports a completed mapping. Gate modes fill Netlist and
// the gate fields; LUT modes fill Network, Depth, OptimalDepth and LUTs.
type MapResult struct {
	Netlist *Netlist
	// Delay is the worst primary-output arrival time.
	Delay float64
	// Area is the summed gate area.
	Area float64
	// Cells is the number of gate instances.
	Cells int
	// DuplicatedNodes counts subject nodes realized more than once
	// (always 0 for tree mapping).
	DuplicatedNodes int
	// MatchesEnumerated counts the pattern-match attempts that
	// succeeded during labeling.
	MatchesEnumerated int
	// PatternsTried counts the pattern plans attempted during
	// labeling; with the root-signature index this is far below
	// nodes x patterns.
	PatternsTried int
	// MemoHits/MemoMisses count structural-memo consultations during
	// the run (both zero when the memo is off). A hit skips the
	// backtracking walk for the whole node. Every run starts with an
	// empty table, so both are a function of the circuit, library and
	// options.
	MemoHits   int
	MemoMisses int
	// MemoEntries is how many recipes the run's memo tables held when
	// it finished. The tables are dropped with the run.
	MemoEntries int

	// Network is the LUT netlist: every internal node is one LUT.
	Network *Network
	// Depth is the mapped LUT depth and OptimalDepth its lower bound
	// from the labels (equal for FlowMap).
	Depth, OptimalDepth int
	// LUTs is the number of LUTs.
	LUTs int

	// CPU is the wall-clock mapping time, subject construction excluded.
	CPU time.Duration
	// SubjectNodes is the size of the subject graph.
	SubjectNodes int
	// SubjectSHA is the canonical content digest of the subject graph
	// (SubjectGraph.Digest): equal digests mean byte-identical netlists
	// for the same library and options, which is what makes whole-result
	// caching sound.
	SubjectSHA string
	// Phases breaks the run down by pipeline phase. DAG covering fills
	// every field, tree covering only Cover and Emit, LUT mapping none.
	Phases PhaseBreakdown
}

// CompiledLibrary is a gate library compiled into pattern graphs:
// every gate is decomposed into shared DAG patterns for DAG covering,
// and into tree patterns for tree covering on the first tree-mode Map.
// Compilation is relatively expensive, so compile once and pass the
// result to any number of Map calls. The compiled plans and
// root-signature index are immutable and shared; each run borrows private matcher scratch and
// an empty structural-match memo from a pool, so no run sees another's
// recordings. A CompiledLibrary is safe for concurrent use, and it is
// the unit the mapping service caches, one per distinct library
// content.
type CompiledLibrary struct {
	lib *Library
	// dag and tree own the compiled plans; runs use pooled clones of
	// them, never these two directly. tree is built by treeOnce.
	dag, tree *match.Matcher
	treeOnce  sync.Once
	treeErr   error
	skipped   []string
	pool      sync.Pool // of *matchers
}

// matchers is one run's pair of matcher clones: shared plans, private
// scratch and memo tables, all cleared by Reset when the run returns
// them to the pool. tree stays nil until a tree-mode run needs it.
type matchers struct{ dag, tree *match.Matcher }

// CompileLibrary compiles lib once for concurrent reuse.
func CompileLibrary(lib *Library) (*CompiledLibrary, error) {
	shared, skipped, err := subject.CompileLibrary(lib, subject.CompileOptions{Share: true})
	if err != nil {
		return nil, err
	}
	cl := &CompiledLibrary{
		lib:     lib,
		dag:     match.NewMatcher(shared),
		skipped: skipped,
	}
	cl.pool.New = func() any { return &matchers{dag: cl.dag.Clone()} }
	return cl, nil
}

// treeMatcher compiles the unshared tree patterns on first use; dag
// mode never needs them.
func (cl *CompiledLibrary) treeMatcher() (*match.Matcher, error) {
	cl.treeOnce.Do(func() {
		var trees []*subject.Pattern
		if trees, _, cl.treeErr = subject.CompileLibrary(cl.lib, subject.CompileOptions{Share: false}); cl.treeErr == nil {
			cl.tree = match.NewMatcher(trees)
		}
	})
	return cl.tree, cl.treeErr
}

// Library returns the compiled library.
func (cl *CompiledLibrary) Library() *Library { return cl.lib }

// NumGates returns the number of gates in the compiled library.
func (cl *CompiledLibrary) NumGates() int { return len(cl.lib.Gates) }

// NumPatterns returns the number of compiled DAG pattern graphs —
// the library-richness figure the match index works against. A
// supergate-expanded library shows up here as a multiplied count.
func (cl *CompiledLibrary) NumPatterns() int { return len(cl.dag.Patterns) }

// SkippedGates lists library gates with no pattern (buffers,
// constants).
func (cl *CompiledLibrary) SkippedGates() []string { return cl.skipped }

// MemoStats exists only for perfbench, which still reads it: a
// compiled library holds no memo table (each Map call records into its
// own), so Entries is always zero. MapResult.MemoEntries is the size.
type MemoStats struct{ Entries int }

// MemoStats returns the zero MemoStats; it exists only for perfbench.
func (cl *CompiledLibrary) MemoStats() MemoStats { return MemoStats{} }

// MapSubjectCompiled is Map in dag mode on a subject graph with this
// library; opt may be nil, and its Mode and Library are overridden.
func (cl *CompiledLibrary) MapSubjectCompiled(ctx context.Context, g *SubjectGraph, opt *MapOptions) (*MapResult, error) {
	var o MapOptions
	if opt != nil {
		o = *opt
	}
	o.Mode, o.Library = ModeDAG, cl
	return Map(ctx, Input{Subject: g}, o)
}

// Map technology-maps the input with the algorithm opt.Mode selects.
// ctx cancels an in-flight run: labeling and construction poll it
// every few dozen nodes and Map returns an error wrapping ctx.Err()
// (check with errors.Is against context.Canceled /
// context.DeadlineExceeded). An uncancelled run's result does not
// depend on the context.
func Map(ctx context.Context, in Input, opt MapOptions) (*MapResult, error) {
	if err := opt.check(in); err != nil {
		return nil, err
	}
	if opt.Delay == nil {
		opt.Delay = IntrinsicDelay
	}
	if opt.Class == MatchExact {
		opt.Class = MatchStandard
	}
	var (
		g       = in.Subject
		choices *subject.Choices
		err     error
	)
	switch {
	case g != nil:
	case opt.Mode == ModeChoices:
		g, choices, err = subject.FromNetworkWithChoices(in.Network)
	default:
		g, err = subject.FromNetwork(in.Network)
	}
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var res *MapResult
	if opt.Mode.lut() {
		res, err = mapLUT(ctx, g, opt)
	} else {
		res, err = opt.Library.mapGates(ctx, g, choices, opt)
	}
	if err != nil {
		return nil, err
	}
	res.CPU = time.Since(start)
	res.SubjectNodes = g.NumNodes()
	res.SubjectSHA = g.Digest()
	return res, nil
}

// check rejects the input/option combinations Map cannot run.
func (o *MapOptions) check(in Input) error {
	switch {
	case o.Mode < ModeDAG || o.Mode > ModeLUTArea:
		return fmt.Errorf("dagcover: unknown mode %v", o.Mode)
	case (in.Network == nil) == (in.Subject == nil):
		return fmt.Errorf("dagcover: Map needs exactly one of Input.Network and Input.Subject")
	case o.Mode == ModeChoices && in.Network == nil:
		return fmt.Errorf("dagcover: choices mode decomposes the network itself and needs Input.Network")
	case o.Mode.lut() && o.Library != nil:
		return fmt.Errorf("dagcover: %v mode maps onto LUTs and takes no Library", o.Mode)
	case !o.Mode.lut() && o.Library == nil:
		return fmt.Errorf("dagcover: %v mode needs a compiled Library", o.Mode)
	}
	return nil
}

// mapGates runs a gate mode on pooled matchers.
func (cl *CompiledLibrary) mapGates(ctx context.Context, g *SubjectGraph, choices *subject.Choices, opt MapOptions) (*MapResult, error) {
	m := cl.pool.Get().(*matchers)
	defer func() {
		// Reset drops the run's scratch, counters and choices, so the
		// next borrower gets a matcher indistinguishable from a fresh
		// clone without recompiling anything.
		m.dag.Reset()
		if m.tree != nil {
			m.tree.Reset()
		}
		cl.pool.Put(m)
	}()
	out := &MapResult{}
	matcher := m.dag
	if opt.Mode == ModeTree || opt.Mode == ModeTreeArea {
		if m.tree == nil {
			tree, err := cl.treeMatcher()
			if err != nil {
				return nil, err
			}
			m.tree = tree.Clone()
		}
		matcher = m.tree
		objective := treemap.MinDelay
		if opt.Mode == ModeTreeArea {
			objective = treemap.MinArea
		}
		matcher.SetMemoEnabled(!opt.NoMemo)
		res, err := treemap.Map(g, matcher, treemap.Options{
			Objective: objective,
			Delay:     opt.Delay,
			Arrivals:  opt.Arrivals,
			Ctx:       ctx,
			Trace:     opt.Trace,
		})
		if err != nil {
			return nil, err
		}
		out.Netlist, out.Delay = res.Netlist, res.Delay
		// The matcher is fresh from the pool, so its counters are this run's.
		out.MemoHits, out.MemoMisses = matcher.MemoHits(), matcher.MemoMisses()
		out.MemoEntries = matcher.MemoEntries()
		out.Phases = treePhaseBreakdown(res.Cover, res.Emit)
	} else {
		matcher.SetMemoEnabled(!opt.NoMemo)
		matcher.SetChoices(choices)
		res, err := core.Map(g, matcher, core.Options{
			Class:        opt.Class,
			Delay:        opt.Delay,
			Arrivals:     opt.Arrivals,
			AreaRecovery: opt.AreaRecovery,
			RequiredTime: opt.RequiredTime,
			Choices:      choices,
			Ctx:          ctx,
			Trace:        opt.Trace,
		})
		if err != nil {
			return nil, err
		}
		out.Netlist, out.Delay = res.Netlist, res.Delay
		out.DuplicatedNodes = res.Stats.DuplicatedNodes
		out.MatchesEnumerated = res.Stats.MatchesEnumerated
		out.PatternsTried = res.Stats.PatternsTried
		out.MemoHits, out.MemoMisses = res.Stats.MemoHits, res.Stats.MemoMisses
		out.MemoEntries = res.Stats.MemoEntries
		out.Phases = phaseBreakdown(res.Stats.Phases)
	}
	out.Area, out.Cells = out.Netlist.Area(), out.Netlist.NumCells()
	return out, nil
}

// mapLUT runs a LUT mode.
func mapLUT(ctx context.Context, g *SubjectGraph, opt MapOptions) (*MapResult, error) {
	if opt.Mode == ModeLUT {
		res, err := flowmap.MapTraced(ctx, g, opt.K, opt.Trace)
		if err != nil {
			return nil, err
		}
		return &MapResult{Network: res.Network, Depth: res.Depth, OptimalDepth: res.Depth, LUTs: res.LUTs}, nil
	}
	res, err := cutmap.Map(g, cutmap.Options{K: opt.K, Mode: cutmap.ModeArea, Slack: opt.Slack, Ctx: ctx, Trace: opt.Trace})
	if err != nil {
		return nil, err
	}
	return &MapResult{Network: res.Network, Depth: res.Depth, OptimalDepth: res.OptimalDepth, LUTs: res.LUTs}, nil
}

// SupergateOptions bounds supergate generation: composition depth,
// input count, emitted-gate budget, and enumeration parallelism. The
// zero value selects sensible defaults (4 inputs, depth 2, 512 gates,
// NumCPU workers). See internal/supergate for the full semantics.
type SupergateOptions = supergate.Options

// SupergateStats reports what one generation run enumerated, pruned,
// and emitted.
type SupergateStats = supergate.Stats

// ExpandSupergates composes gates of lib into depth-bounded
// supergates (Cai et al.'s technique for manufacturing library
// richness) and returns a new library holding the base gates plus one
// synthetic gate per surviving equivalence class, with composed
// pin-to-output delays and summed areas. The result flows through
// CompileLibrary unchanged. Generation is deterministic
// at any worker count.
func ExpandSupergates(lib *Library, opt SupergateOptions) (*Library, SupergateStats, error) {
	res, err := supergate.Generate(lib, opt)
	if err != nil {
		return nil, SupergateStats{}, err
	}
	return res.Library, res.Stats, nil
}

// ArtifactStore is a persistent content-addressed artifact store: a
// directory of checksummed, atomically published blobs shared by
// every process pointed at it. Expanded supergate genlibs are the
// first artifact kind; the interface is generic over (kind, key,
// bytes). See internal/store.
type ArtifactStore = store.Store

// ArtifactStoreOptions tunes an ArtifactStore (disk budget, tracing).
type ArtifactStoreOptions = store.Options

// ArtifactStoreStats is a point-in-time view of a store's counters
// and disk usage.
type ArtifactStoreStats = store.Stats

// OpenArtifactStore creates (if needed) and opens the artifact store
// rooted at dir.
func OpenArtifactStore(dir string, opt ArtifactStoreOptions) (*ArtifactStore, error) {
	return store.Open(dir, opt)
}

// SupergateStoreInfo describes how the persistent path satisfied one
// supergate expansion: store hit or fresh generation, the artifact's
// content identity, and the generation cost recorded with it.
type SupergateStoreInfo = supergate.StoreInfo

// ExpandSupergatesStored is ExpandSupergates behind an ArtifactStore:
// on a hit the expanded library is loaded from the stored genlib
// artifact and enumeration is skipped entirely; on a miss it is
// generated once, published atomically, and shared with every process
// using the same store. st may be nil (plain generation). Mapping
// results are byte-identical with the store enabled or disabled.
func ExpandSupergatesStored(st *ArtifactStore, lib *Library, opt SupergateOptions) (*Library, SupergateStats, SupergateStoreInfo, error) {
	return supergate.GenerateStored(st, lib, opt)
}

// TimingReport is a full slack analysis (see AnalyzeTiming).
type TimingReport = sta.Report

// TimingPath is one extracted timing path.
type TimingPath = sta.Path

// AnalyzeTiming computes arrival times, required times against the
// target (0 = the worst arrival, so the critical path gets slack 0),
// and per-net slacks for a mapped netlist.
func AnalyzeTiming(nl *Netlist, dm DelayModel, requiredTime float64) (*TimingReport, error) {
	return sta.Analyze(nl, dm, sta.Options{RequiredTime: requiredTime})
}

// WorstTimingPaths returns the k most critical paths of the netlist.
func WorstTimingPaths(nl *Netlist, dm DelayModel, k int) ([]TimingPath, error) {
	return sta.WorstPaths(nl, dm, sta.Options{}, k)
}

// LoadTiming reports a netlist's delay under the full load-dependent
// genlib model (block + fanout-coefficient * load). The paper's
// mapping model deliberately zeroes the load term (footnote 4);
// this function quantifies the approximation.
func LoadTiming(nl *Netlist, outputLoad float64) (float64, error) {
	t, err := nl.DelayLoaded(mapping.LoadOptions{OutputLoad: outputLoad})
	if err != nil {
		return 0, err
	}
	return t.Delay, nil
}

// InsertBuffers splits nets driving more than maxFanout sinks with
// balanced trees of the library's buffer gate (§3.5: buffering
// complements DAG covering at the multiple-fanout points it creates).
func InsertBuffers(nl *Netlist, lib *Library, maxFanout int) (*Netlist, error) {
	buf := lib.Buffer()
	if buf == nil {
		return nil, fmt.Errorf("dagcover: library %q has no buffer gate", lib.Name)
	}
	return nl.InsertBuffers(buf, maxFanout)
}

// Verify checks a mapped netlist against the original network by
// exhaustive (small inputs) or random simulation.
func Verify(orig *Network, mapped *Netlist) error {
	return verify.Mapped(orig, mapped, verify.Options{})
}

// VerifyNetworks checks two networks for functional equivalence on
// their common outputs.
func VerifyNetworks(orig, candidate *Network) error {
	return verify.Networks(orig, candidate, verify.Options{})
}

// MinPeriod computes the minimum clock period achievable by retiming
// under the given per-node delays (nil = unit delays).
func MinPeriod(nw *Network, delays retime.Delays) (float64, error) {
	if delays == nil {
		delays = retime.UnitDelays
	}
	p, _, err := retime.MinPeriod(nw, delays)
	return p, err
}

// Retime applies a minimum-period retiming and returns the retimed
// network.
func Retime(nw *Network, delays retime.Delays) (*Network, float64, error) {
	if delays == nil {
		delays = retime.UnitDelays
	}
	p, r, err := retime.MinPeriod(nw, delays)
	if err != nil {
		return nil, 0, err
	}
	out, err := retime.Apply(nw, delays, r)
	if err != nil {
		return nil, 0, err
	}
	return out, p, nil
}

// SeqLUTResult is a jointly optimal sequential LUT mapping.
type SeqLUTResult = seqmap.Result

// MapSequentialLUT runs Pan & Liu's sequential k-LUT mapping (the
// algorithm the paper's §4 builds on): a binary search on the clock
// period whose decision procedure labels every node over all k-cuts
// of its register-crossing cone. Unlike MapSequential's practical
// three-step flow, cuts may cross registers, so the result can beat
// any map-then-retime combination (optimal up to the documented cut
// bounds). Latch initial values must be zero.
func MapSequentialLUT(nw *Network, k int) (*SeqLUTResult, error) {
	return seqmap.Map(nw, seqmap.Options{K: k})
}

// SeqResult reports sequential mapping (§4: retime, map, retime).
type SeqResult struct {
	// Network is the mapped and retimed sequential circuit; cell
	// functions are inlined as node functions.
	Network *Network
	// PeriodBefore is the clock period of the mapped circuit before
	// the final retiming; PeriodAfter is the optimal period after it.
	PeriodBefore, PeriodAfter float64
	// Comb is the combinational mapping result.
	Comb *MapResult
}

// MapSequential performs the paper's §4 flow: map the combinational
// portion with DAG covering (latch boundaries fixed), reattach the
// latches, then retime the mapped circuit to its minimum period. Gate
// delays for retiming are each cell's worst pin delay under the
// mapping delay model. opt is as for Map in dag mode.
func MapSequential(ctx context.Context, nw *Network, opt MapOptions) (*SeqResult, error) {
	if len(nw.Latches()) == 0 {
		return nil, fmt.Errorf("dagcover: MapSequential needs a sequential circuit; use Map")
	}
	if opt.Mode != ModeDAG {
		return nil, fmt.Errorf("dagcover: MapSequential maps in dag mode, not %v", opt.Mode)
	}
	comb, err := Map(ctx, Input{Network: nw}, opt)
	if err != nil {
		return nil, err
	}
	if opt.Delay == nil {
		opt.Delay = IntrinsicDelay
	}
	mappedNet, err := comb.Netlist.ToNetwork()
	if err != nil {
		return nil, err
	}
	seq, err := network.ReattachLatches(mappedNet, nw)
	if err != nil {
		return nil, err
	}
	// Per-node delays: worst pin delay of the driving cell.
	cellDelay := map[string]float64{}
	for _, c := range comb.Netlist.Cells {
		worst := 0.0
		for pin := range c.Inputs {
			if d := opt.Delay.PinDelay(c.Gate, pin); d > worst {
				worst = d
			}
		}
		cellDelay[c.Output] = worst
	}
	delays := func(n *network.Node) float64 { return cellDelay[n.Name] }
	before, err := retime.Period(seq, delays)
	if err != nil {
		return nil, err
	}
	after, r, err := retime.MinPeriod(seq, delays)
	if err != nil {
		return nil, err
	}
	final, err := retime.Apply(seq, delays, r)
	if err != nil {
		return nil, err
	}
	return &SeqResult{
		Network:      final,
		PeriodBefore: before,
		PeriodAfter:  after,
		Comb:         comb,
	}, nil
}
