// Package core implements the paper's contribution: delay-optimal
// technology mapping of a subject DAG by DAG covering (Kukimoto,
// Brayton, Sawkar, DAC 1998).
//
// The algorithm adapts FlowMap's labeling to library-based mapping
// (§3): nodes are visited in topological order and each is labeled
// with the best arrival time achievable by any library match rooted
// there,
//
//	arr(n) = min over matches M at n of
//	         max over leaves l of M of (arr(l) + pinDelay(M, l)),
//
// which satisfies the principle of optimality under a load-independent
// delay model. A mapped netlist is then constructed backwards from the
// primary outputs (§3.3): a queue is seeded with the output nodes, the
// best gate stored at each popped node is instantiated, and its match
// leaves are enqueued unless already available. Subject nodes covered
// internally by one match and used as leaves by another are duplicated
// automatically (§3.5, Figure 2).
//
// The same engine runs the conventional tree-covering baseline when
// given match.Exact (every internally covered node must then have all
// fanouts inside the match, which confines matches to fanout-free
// regions — exactly SIS tree mapping on the same subject graph).
package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"dagcover/internal/genlib"
	"dagcover/internal/mapping"
	"dagcover/internal/match"
	"dagcover/internal/obs"
	"dagcover/internal/subject"
)

// cancelCheckStride is how many nodes a labeling or construction loop
// processes between ctx.Err() polls. Per-node match enumeration costs
// microseconds, so a stride of 64 bounds the cancellation latency to
// well under a millisecond while keeping the poll off the hot path.
const cancelCheckStride = 64

// noNet marks a subject node whose net has not been built.
const noNet mapping.Net = -1

// gcAfterLabelNodes is the subject-graph size above which Map forces a
// collection between the labeling and construction phases.
const gcAfterLabelNodes = 1 << 20

// Options configures Map.
type Options struct {
	// Class selects the match semantics. match.Standard is the
	// paper's default for DAG covering (footnote 3); match.Exact turns
	// the engine into the tree-covering baseline.
	Class match.Class
	// Delay is the delay model (default genlib.IntrinsicDelay).
	Delay genlib.DelayModel
	// Arrivals optionally gives primary-input arrival times.
	Arrivals map[string]float64
	// AreaRecovery, when set, relaxes off-critical nodes to the
	// smallest match that still meets the delay target (the area/delay
	// trade-off sketched in the paper's conclusion).
	AreaRecovery bool
	// RequiredTime relaxes the delay target for AreaRecovery: the
	// mapping may be up to RequiredTime slow instead of delay-optimal.
	// Values below the optimal delay are clamped to it; 0 means
	// optimal. This is the extension of Cong & Ding's area/depth
	// trade-off to library mapping that the paper's conclusion
	// announces as under investigation.
	RequiredTime float64
	// Choices declares functionally equivalent alternative subject
	// nodes (mapping-graph style, §4): the label of every class member
	// becomes the best over the class, and construction may realize
	// whichever member's match won. The matcher must have been given
	// the same choices (match.Matcher.SetChoices) so structural
	// descent can cross into alternative cones.
	Choices *subject.Choices
	// Ctx, when non-nil, lets callers cancel a mapping run: labeling
	// and construction poll ctx.Err() every cancelCheckStride nodes,
	// and Map returns an error wrapping ctx.Err() without completing.
	// A nil Ctx never cancels. The mapped result of an uncancelled run
	// is identical with or without a context.
	Ctx context.Context
	// Trace, when non-nil, records phase spans (labeling, the
	// area-estimate pass, cover and emit) and the matcher's
	// per-signature-bucket probe counts into the given tracer. A nil
	// Trace costs one pointer check per phase; the mapped result is
	// identical either way.
	Trace *obs.Trace
}

// Label is the dynamic-programming state of one subject node: the best
// arrival time and the match realizing it, stored flat. Leaves and
// Covered point into an arena chunk, so labeling a graph costs a
// handful of large allocations instead of three small ones per node.
type Label struct {
	// Arrival is the best arrival time achievable at the node.
	Arrival float64
	// Pat is the pattern of the match realizing Arrival (nil for PIs).
	Pat *subject.Pattern
	// Leaves are the match's leaf bindings in gate-pin order.
	Leaves []subject.Node
	// Covered are the subject nodes the match covers internally
	// (including the root, excluding the leaves).
	Covered []subject.Node
}

// Counters is the deterministic work-count portion of Stats: the same
// subject, library and options yield byte-identical Counters, so tests
// compare them with ==.
type Counters struct {
	NodesLabeled      int
	MatchesEnumerated int
	// PatternsTried counts pattern plans attempted (before structural
	// descent); the matcher's root-signature index lowers it without
	// changing MatchesEnumerated.
	PatternsTried int
	CellsEmitted  int
	// DuplicatedNodes counts subject nodes that are covered
	// internally by one emitted match and also emitted as a cell root
	// themselves — the duplication of §3.5.
	DuplicatedNodes int
	// MemoHits/MemoMisses count match-memo consultations (zero when
	// the memo is off). On a fresh or Reset matcher both are a function
	// of the circuit, library and options. A matcher reused without
	// Reset carries its table into the run, which moves the hit/miss
	// split but not the sum (one consultation per memoizable
	// enumeration); cross-run equality checks on such a matcher must
	// zero these two fields. The other counters keep the byte-identical
	// guarantee above: memoization replays the exact enumeration it
	// recorded.
	MemoHits   int
	MemoMisses int
}

// Phases is the per-phase wall-clock breakdown of a mapping run.
// Unlike Counters, durations vary run to run.
type Phases struct {
	// Label is the labeling pass.
	Label time.Duration
	// Area is the area-estimate DP pass (area recovery only).
	Area time.Duration
	// Cover is match re-selection and required-time propagation.
	Cover time.Duration
	// Emit is netlist emission through the builder, including the
	// re-timing that yields Result.Delay.
	Emit time.Duration
}

// Total returns the summed time across phases.
func (p Phases) Total() time.Duration {
	return p.Label + p.Area + p.Cover + p.Emit
}

// Stats reports work done by the mapper: deterministic Counters and
// measured Phases.
type Stats struct {
	Counters
	Phases Phases
	// MemoEntries is how many recipes the matcher's memo table holds
	// when the run finishes. A size, not an additive counter; Map sets
	// it once at the end.
	MemoEntries int
}

// Result is a completed mapping.
type Result struct {
	Netlist *mapping.Netlist
	// Delay is the netlist's worst output arrival. Without a relaxed
	// RequiredTime it equals the optimal label delay.
	Delay float64
	// Labels holds the per-node DP state indexed by subject node ID.
	Labels []Label
	Stats  Stats
}

// nodeArena bump-allocates the Leaves/Covered slices stored in Labels.
// Saved slices are full-capacity subslices of large shared chunks, so
// per-node match storage costs one allocation per arenaChunk nodes of
// leaf data instead of two per node. The chunks outlive the labeling
// pass through the Labels that point into them.
type nodeArena struct {
	buf []subject.Node // len = used, cap = chunk size
}

// arenaChunk is the arena's allocation granularity in nodes.
const arenaChunk = 1 << 16

// save copies src into the arena and returns the stable copy.
func (a *nodeArena) save(src []subject.Node) []subject.Node {
	n := len(src)
	if n == 0 {
		return nil
	}
	if cap(a.buf)-len(a.buf) < n {
		sz := arenaChunk
		if n > sz {
			sz = n
		}
		a.buf = make([]subject.Node, 0, sz)
	}
	lo := len(a.buf)
	a.buf = a.buf[:lo+n]
	dst := a.buf[lo : lo+n : lo+n]
	copy(dst, src)
	return dst
}

// Map covers the subject graph with the matcher's pattern set.
func Map(g *subject.Graph, m *match.Matcher, opt Options) (*Result, error) {
	if opt.Delay == nil {
		opt.Delay = genlib.IntrinsicDelay{}
	}
	if opt.Ctx == nil {
		opt.Ctx = context.Background()
	}
	if len(g.Outputs) == 0 {
		return nil, fmt.Errorf("core: subject graph %q has no outputs", g.Name)
	}
	nn := g.NumNodes()
	res := &Result{Labels: make([]Label, nn)}

	// classMax[i] is the largest node ID in i's choice class (i when
	// the node has no alternatives). Labels merge across a class once
	// its last member is labeled; construction orders demands by this
	// key so a match rooted at any member resolves before its leaves.
	// Without choices it would be the identity; it stays nil, and every
	// use is guarded by opt.Choices.
	var classMax []int
	if opt.Choices != nil {
		classMax = make([]int, nn)
		for i := 0; i < nn; i++ {
			classMax[i] = i
			members := opt.Choices.Members(subject.Node(i))
			if members == nil {
				continue
			}
			max := subject.Node(i)
			for _, mm := range members {
				if mm > max {
					max = mm
				}
			}
			classMax[i] = int(max)
		}
	}

	// Snapshot the base matcher's per-signature probe counts so the
	// run's own probes can be reported as a diff (matchers are reused
	// across runs).
	var sigBase []uint32
	if opt.Trace.Enabled() {
		sigBase = m.SigBucketsTried()
	}

	// Phase 1: labeling in topological order.
	labelStart := time.Now()
	labelSpan := opt.Trace.Start("core.label")
	if err := labelSerial(g, m, opt, res, classMax); err != nil {
		return nil, err
	}
	res.Stats.Phases.Label = time.Since(labelStart)
	labelSpan.
		Arg("nodes_labeled", res.Stats.NodesLabeled).
		Arg("matches_enumerated", res.Stats.MatchesEnumerated).
		Arg("patterns_tried", res.Stats.PatternsTried).
		End()
	if g.NumNodes() >= gcAfterLabelNodes {
		// On million-node graphs labeling leaves behind tens of MB of
		// dense per-node scratch. Construction is about to allocate the
		// output netlist on top of that garbage; collecting here keeps
		// the two allocation humps from stacking into the peak-heap
		// high-water mark. Below the threshold the pause would cost more
		// than the heap it returns.
		runtime.GC()
	}

	// Phase 2: backward construction.
	if err := construct(g, m, opt, res, classMax); err != nil {
		return nil, err
	}
	if opt.Trace.Enabled() {
		emitSigBuckets(opt.Trace, m.SigBucketsTried(), sigBase)
	}
	if g.NumNodes() >= gcAfterLabelNodes {
		// Same reasoning as the post-labeling collection: construction
		// just dropped its per-node arrays, and the caller is about to
		// render the netlist; collect so the humps don't stack.
		runtime.GC()
	}
	res.Stats.MemoEntries = m.MemoEntries()
	return res, nil
}

// emitSigBuckets records the matcher's per-root-signature probe
// counts accumulated during this run (cur minus the base snapshot) as
// one instant event.
func emitSigBuckets(tr *obs.Trace, cur, base []uint32) {
	var args []obs.Arg
	var total uint64
	for i := range cur {
		d := uint64(cur[i])
		if i < len(base) {
			d -= uint64(base[i])
		}
		if d == 0 {
			continue
		}
		total += d
		args = append(args, obs.Arg{Key: fmt.Sprintf("sig_%03d", i), Val: d})
	}
	if total == 0 {
		return
	}
	hit := len(args)
	args = append(args, obs.Arg{Key: "total", Val: total},
		obs.Arg{Key: "buckets_hit", Val: hit})
	tr.Instant("match.signature_buckets", args...)
}

// labelSerial runs the labeling DP in plain topological order.
func labelSerial(g *subject.Graph, m *match.Matcher, opt Options, res *Result, classMax []int) error {
	var scratch matchScratch
	var arena nodeArena
	nn := g.NumNodes()
	for i := 0; i < nn; i++ {
		if i%cancelCheckStride == 0 {
			if err := opt.Ctx.Err(); err != nil {
				return fmt.Errorf("core: labeling interrupted: %w", err)
			}
		}
		n := subject.Node(i)
		if g.KindOf(n) == subject.PI {
			res.Labels[i] = Label{Arrival: opt.Arrivals[g.NameOf(n)]}
			continue
		}
		if err := bestMatch(g, m, n, nil, opt, res.Labels, math.Inf(1), nil, &scratch, &res.Stats); err != nil {
			return err
		}
		res.Labels[i] = Label{
			Arrival: scratch.arr,
			Pat:     scratch.pat,
			Leaves:  arena.save(scratch.leaves),
			Covered: arena.save(scratch.covered),
		}
		res.Stats.NodesLabeled++
		// Merge the class once its last member is labeled: every
		// member takes the best member's label (consumers only appear
		// later, so they see the merged value).
		if opt.Choices != nil && classMax[i] == i {
			mergeClassLabels(res.Labels, opt.Choices.Members(n))
		}
	}
	return nil
}

// mergeClassLabels gives every choice-class member the best member's
// label. Member order decides float ties.
func mergeClassLabels(labels []Label, members []subject.Node) {
	if members == nil {
		return
	}
	best := members[0]
	for _, mm := range members[1:] {
		if labels[mm].Arrival < labels[best].Arrival {
			best = mm
		}
	}
	for _, mm := range members {
		labels[mm] = labels[best]
	}
}

// matchArrival computes the arrival time of a match from its leaves.
func matchArrival(mt *match.Match, dm genlib.DelayModel, labels []Label) float64 {
	worst := math.Inf(-1)
	for pin, leaf := range mt.Leaves {
		if v := labels[leaf].Arrival + dm.PinDelay(mt.Pattern.Gate, pin); v > worst {
			worst = v
		}
	}
	return worst
}

// matchScratch stages the in-flight best match of one bestMatch
// caller. The winner is held here — pattern, arrival, and leaf/cover
// bindings in reusable slices — so an enumeration that improves its
// best k times costs zero allocations; the caller copies the winner
// into its arena exactly once.
type matchScratch struct {
	pat     *subject.Pattern
	arr     float64
	leaves  []subject.Node
	covered []subject.Node

	// Persistent enumeration callback and its per-call registers.
	// bestMatch parameterizes the scratch and hands cb to Enumerate;
	// binding the closure once per scratch (not once per node) keeps
	// labeling free of per-node closure allocations.
	cb       func(*match.Match) bool
	delay    genlib.DelayModel
	labels   []Label
	limit    float64
	areaCost func(*match.Match) float64
	st       *Stats
	bestArr  float64
	bestArea float64
}

// onMatch is the Enumerate callback body; see bestMatch for the
// selection rule.
func (s *matchScratch) onMatch(mt *match.Match) bool {
	s.st.MatchesEnumerated++
	arr := matchArrival(mt, s.delay, s.labels)
	if arr > s.limit+matchEps {
		return true
	}
	area := mt.Pattern.Gate.Area
	if s.areaCost != nil {
		area = s.areaCost(mt)
	}
	better := false
	switch {
	case s.pat == nil:
		better = true
	case s.areaCost != nil:
		better = area < s.bestArea || (area == s.bestArea && arr < s.bestArr)
	default:
		better = arr < s.bestArr || (arr == s.bestArr && area < s.bestArea)
	}
	if better {
		s.pat = mt.Pattern
		s.leaves = append(s.leaves[:0], mt.Leaves...)
		s.covered = append(s.covered[:0], mt.Covered...)
		s.bestArr, s.bestArea = arr, area
	}
	return true
}

// matchEps guards against float drift in required-time subtraction.
const matchEps = 1e-9

// bestMatch enumerates matches at n and selects the minimum-arrival
// one (ties broken toward smaller gate area), staging the winner in
// scratch. When members is non-nil (n's choice class, n included) the
// candidates are the matches rooted at every member, in member order:
// the same set labeling merged n's label from. Matches slower than limit
// are discarded. When areaCost is non-nil the selection instead
// minimizes the match's area cost among matches meeting the limit — the
// area-recovery mode. Enumeration work is accumulated into st.
func bestMatch(g *subject.Graph, m *match.Matcher, n subject.Node, members []subject.Node, opt Options, labels []Label, limit float64, areaCost func(*match.Match) float64, scratch *matchScratch, st *Stats) error {
	scratch.pat = nil
	scratch.delay = opt.Delay
	scratch.labels = labels
	scratch.limit = limit
	scratch.areaCost = areaCost
	scratch.st = st
	scratch.bestArr, scratch.bestArea = 0, 0
	if scratch.cb == nil {
		scratch.cb = scratch.onMatch
	}
	tried0 := m.PatternsTried()
	hits0, misses0 := m.MemoHits(), m.MemoMisses()
	if members == nil {
		m.Enumerate(g, n, opt.Class, scratch.cb)
	}
	for _, mm := range members {
		m.Enumerate(g, mm, opt.Class, scratch.cb)
	}
	st.PatternsTried += m.PatternsTried() - tried0
	st.MemoHits += m.MemoHits() - hits0
	st.MemoMisses += m.MemoMisses() - misses0
	switch {
	case scratch.pat != nil:
	case !math.IsInf(limit, 1):
		// Labeling found a match here, so only the limit rejected them.
		return fmt.Errorf("core: no %v match at node %v of %q meets its required time %g",
			opt.Class, n, g.Name, limit)
	default:
		return fmt.Errorf(
			"core: no %v match at node %v of %q; the library must at least contain a 2-input NAND and an inverter",
			opt.Class, n, g.Name)
	}
	scratch.arr = scratch.bestArr
	return nil
}

// areaEstimates computes a min-area cover DP (sharing ignored):
// est(n) = min over matches of (gate area + sum of est(leaves)).
// Used by area recovery to score the logic a match newly demands.
func areaEstimates(g *subject.Graph, m *match.Matcher, opt Options, st *Stats) ([]float64, error) {
	start := time.Now()
	span := opt.Trace.Start("core.area_estimates")
	nn := g.NumNodes()
	defer func() {
		st.Phases.Area += time.Since(start)
		span.Arg("nodes", nn).End()
	}()
	est := make([]float64, nn)
	tried0 := m.PatternsTried()
	hits0, misses0 := m.MemoHits(), m.MemoMisses()
	defer func() {
		st.MemoHits += m.MemoHits() - hits0
		st.MemoMisses += m.MemoMisses() - misses0
	}()
	for i := 0; i < nn; i++ {
		if i%cancelCheckStride == 0 {
			if err := opt.Ctx.Err(); err != nil {
				return nil, fmt.Errorf("core: area estimation interrupted: %w", err)
			}
		}
		n := subject.Node(i)
		if g.KindOf(n) == subject.PI {
			continue
		}
		best := math.Inf(1)
		found := false
		m.Enumerate(g, n, opt.Class, func(mt *match.Match) bool {
			st.MatchesEnumerated++
			cost := mt.Pattern.Gate.Area
			for _, leaf := range mt.Leaves {
				cost += est[leaf]
			}
			if cost < best {
				best = cost
				found = true
			}
			return true
		})
		if !found {
			st.PatternsTried += m.PatternsTried() - tried0
			return nil, fmt.Errorf("core: no %v match at node %v of %q", opt.Class, n, g.Name)
		}
		est[i] = best
	}
	st.PatternsTried += m.PatternsTried() - tried0
	return est, nil
}

// construct performs the backward netlist-construction phase. When
// opt.AreaRecovery is set it first computes required times in reverse
// topological order and re-selects the smallest sufficient match per
// demanded node; otherwise it emits each node's labeled best match.
func construct(g *subject.Graph, m *match.Matcher, opt Options, res *Result, classMax []int) error {
	nn := g.NumNodes()
	// Required times per demanded node; +Inf = not demanded.
	required := make([]float64, nn)
	for i := range required {
		required[i] = math.Inf(1)
	}
	// Global optimal delay = worst labeled output arrival.
	target := math.Inf(-1)
	for _, o := range g.Outputs {
		if a := res.Labels[o.Node].Arrival; a > target {
			target = a
		}
	}
	if opt.AreaRecovery && opt.RequiredTime > target {
		target = opt.RequiredTime
	}
	for _, o := range g.Outputs {
		req := target
		if !opt.AreaRecovery {
			// Without recovery each output is demanded at its own
			// optimal arrival; the chosen matches are the labels'.
			req = res.Labels[o.Node].Arrival
		}
		if req < required[o.Node] {
			required[o.Node] = req
		}
	}

	// Choose matches in reverse topological order of classMax: every
	// match leaf lies strictly below its root's class maximum, so all
	// demands on a node are known by the time it is visited. Without
	// choices the order is the node IDs themselves and stays nil.
	var order []int32
	if opt.Choices != nil {
		order = make([]int32, nn)
		for i := range order {
			order[i] = int32(i)
		}
		sort.Slice(order, func(i, j int) bool {
			a, b := order[i], order[j]
			if classMax[a] != classMax[b] {
				return classMax[a] < classMax[b]
			}
			return a < b
		})
	}
	var areaEst []float64
	if opt.AreaRecovery {
		est, err := areaEstimates(g, m, opt, &res.Stats)
		if err != nil {
			return err
		}
		areaEst = est
	}
	coverStart := time.Now()
	coverSpan := opt.Trace.Start("core.cover")
	var scratch matchScratch
	var arena nodeArena
	// chosen[id] is the match to emit at id: the node's label, or the
	// area-recovery re-selection (Arrival is unused here). Without
	// recovery every choice IS the label, so chosen aliases res.Labels
	// rather than copying it — the copy would be a second 64B-per-node
	// array held straight through emission, a real slice of the peak on
	// million-node graphs. The emit loop filters by demand (finite
	// required time), so the undemanded labels visible through the
	// alias are never emitted.
	chosen := res.Labels
	if opt.AreaRecovery {
		chosen = make([]Label, nn)
	}
	// Demanded non-PI nodes and their leaves: the cells and input pins
	// emission will add.
	cells, pins := 0, 0
	for oi := nn - 1; oi >= 0; oi-- {
		if oi%cancelCheckStride == 0 {
			if err := opt.Ctx.Err(); err != nil {
				return fmt.Errorf("core: construction interrupted: %w", err)
			}
		}
		id := int32(oi)
		if order != nil {
			id = order[oi]
		}
		n := subject.Node(id)
		if math.IsInf(required[id], 1) || g.KindOf(n) == subject.PI {
			continue
		}
		mt := res.Labels[id]
		if opt.AreaRecovery {
			// Score by incremental area: the gate itself plus the
			// estimated cost of leaves nobody has demanded yet.
			cost := func(cand *match.Match) float64 {
				c := cand.Pattern.Gate.Area
				for _, leaf := range cand.Leaves {
					if g.KindOf(leaf) != subject.PI && math.IsInf(required[leaf], 1) {
						c += areaEst[leaf]
					}
				}
				return c
			}
			// With choices the label may come from another class member,
			// so the candidates are every member's matches.
			err := bestMatch(g, m, n, opt.Choices.Members(n), opt, res.Labels, required[id], cost, &scratch, &res.Stats)
			if err != nil {
				return err // cannot happen: the labeled match meets any required >= label
			}
			mt = Label{
				Pat:     scratch.pat,
				Leaves:  arena.save(scratch.leaves),
				Covered: arena.save(scratch.covered),
			}
			chosen[id] = mt
		}
		cells++
		pins += len(mt.Leaves)
		for pin, leaf := range mt.Leaves {
			r := required[id] - opt.Delay.PinDelay(mt.Pat.Gate, pin)
			if r < required[leaf] {
				required[leaf] = r
			}
		}
	}
	res.Stats.Phases.Cover += time.Since(coverStart)
	coverSpan.Arg("area_recovery", opt.AreaRecovery).End()

	// Emit cells bottom-up (ascending ID keeps the builder happy) and
	// count duplicated nodes: cell roots that some other emitted match
	// covers internally. The builder works in net IDs: netOf maps each
	// built subject node to its net, so no net is named or hashed here.
	emitStart := time.Now()
	emitSpan := opt.Trace.Start("core.emit")
	b := mapping.NewBuilder(g.Name)
	netOf := make([]mapping.Net, nn)
	for i := range netOf {
		netOf[i] = noNet
	}
	// arrival re-times the cover as it is emitted, node by node. A
	// cell's arrival is its worst pin, starting from 0 — the same float
	// operations in the same order as Netlist.Delay over the finished
	// netlist, so Result.Delay is bit-identical to it.
	arrival := make([]float64, nn)
	for _, pi := range g.PIs {
		name := g.NameOf(pi)
		net, err := b.AddInputNet(name)
		if err != nil {
			return err
		}
		netOf[pi] = net
		arrival[pi] = opt.Arrivals[name]
	}
	// Reserve port names after the inputs: a port that sits directly
	// on a PI shares the PI's net and needs no reservation of its own.
	// Outputs keep their port name when they own it: the first port on
	// a node names its net. Keyed by node rather than a dense nn-sized
	// array — ports are few.
	preferred := make(map[subject.Node]mapping.Net, len(g.Outputs))
	for _, o := range g.Outputs {
		if g.KindOf(o.Node) == subject.PI {
			continue
		}
		net := b.Reserve(o.Name)
		if _, ok := preferred[o.Node]; !ok {
			preferred[o.Node] = net
		}
	}
	b.Grow(cells, pins)
	coverUses := make([]int32, nn)
	var inputs []mapping.Net
	for oi := 0; oi < nn; oi++ {
		id := int32(oi)
		if order != nil {
			id = order[oi]
		}
		// Demand filter: with chosen aliasing res.Labels, undemanded
		// nodes still carry their labels and must be skipped here.
		if math.IsInf(required[id], 1) {
			continue
		}
		mt := chosen[id]
		if mt.Pat == nil {
			continue
		}
		gate := mt.Pat.Gate
		inputs = inputs[:0]
		worst := 0.0
		for pin, leaf := range mt.Leaves {
			if netOf[leaf] == noNet {
				return fmt.Errorf("core: internal error: leaf %v demanded but not built", leaf)
			}
			inputs = append(inputs, netOf[leaf])
			if v := arrival[leaf] + opt.Delay.PinDelay(gate, pin); v > worst {
				worst = v
			}
		}
		net, ok := preferred[subject.Node(id)]
		if !ok {
			net = b.NewNet()
		}
		b.AddCellNets(gate, inputs, net)
		netOf[id] = net
		arrival[id] = worst
		res.Stats.CellsEmitted++
		for _, c := range mt.Covered {
			coverUses[c]++
		}
	}
	// A subject node realized inside two or more emitted matches has
	// been duplicated (§3.5).
	for _, uses := range coverUses {
		if uses >= 2 {
			res.Stats.DuplicatedNodes++
		}
	}
	// The reported delay is the worst output arrival. It equals the
	// optimal label delay except under a relaxed RequiredTime, where it
	// may sit anywhere between the optimum and the target.
	delay, first := 0.0, true
	for _, o := range g.Outputs {
		net := netOf[o.Node]
		if net == noNet {
			return fmt.Errorf("core: internal error: output %q not built", o.Name)
		}
		b.MarkOutputNet(o.Name, net)
		if a := arrival[o.Node]; first || a > delay {
			delay, first = a, false
		}
	}
	nl, err := b.Netlist()
	if err != nil {
		return err
	}
	res.Netlist = nl
	res.Delay = delay
	res.Stats.Phases.Emit += time.Since(emitStart)
	emitSpan.
		Arg("cells", res.Stats.CellsEmitted).
		Arg("duplicated", res.Stats.DuplicatedNodes).
		End()
	return nil
}
