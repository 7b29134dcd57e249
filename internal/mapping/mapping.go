// Package mapping models technology-mapped netlists: instances of
// library gates connected by named nets, with area accounting, static
// timing under a pluggable delay model, and conversion back to a
// Boolean network for functional verification.
package mapping

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"

	"dagcover/internal/genlib"
	"dagcover/internal/logic"
	"dagcover/internal/network"
)

// Cell is one gate instance.
type Cell struct {
	Name   string
	Gate   *genlib.Gate
	Inputs []string // net per input pin, in pin order
	Output string   // driven net
}

// OutputPort exposes a net under a port name.
type OutputPort struct {
	Name string
	Net  string
}

// Netlist is a combinational mapped circuit. Cells are stored in
// topological order: every cell appears after the drivers of all its
// input nets.
type Netlist struct {
	Name    string
	Inputs  []string
	Outputs []OutputPort
	Cells   []*Cell
}

// NumCells returns the number of gate instances.
func (n *Netlist) NumCells() int { return len(n.Cells) }

// Area returns the summed gate area.
func (n *Netlist) Area() float64 {
	a := 0.0
	for _, c := range n.Cells {
		a += c.Gate.Area
	}
	return a
}

// Check validates structural sanity: unique drivers, defined inputs,
// topological cell order, ports on real nets.
func (n *Netlist) Check() error {
	driven := map[string]bool{}
	for _, in := range n.Inputs {
		if driven[in] {
			return fmt.Errorf("mapping: duplicate input net %q", in)
		}
		driven[in] = true
	}
	for _, c := range n.Cells {
		if len(c.Inputs) != c.Gate.NumInputs() {
			return fmt.Errorf("mapping: cell %q has %d inputs for gate %q with %d pins",
				c.Name, len(c.Inputs), c.Gate.Name, c.Gate.NumInputs())
		}
		for _, in := range c.Inputs {
			if !driven[in] {
				return fmt.Errorf("mapping: cell %q input net %q has no earlier driver", c.Name, in)
			}
		}
		if driven[c.Output] {
			return fmt.Errorf("mapping: net %q driven more than once", c.Output)
		}
		driven[c.Output] = true
	}
	for _, p := range n.Outputs {
		if !driven[p.Net] {
			return fmt.Errorf("mapping: output port %q on undriven net %q", p.Name, p.Net)
		}
	}
	return nil
}

// Timing is the result of static timing analysis.
type Timing struct {
	// Arrival maps every net to its arrival time.
	Arrival map[string]float64
	// Delay is the worst arrival over all output ports.
	Delay float64
	// CriticalPort is the output port achieving Delay.
	CriticalPort string
}

// Delay runs static timing under dm. arrivals optionally provides
// primary-input arrival times (missing inputs arrive at 0).
func (n *Netlist) Delay(dm genlib.DelayModel, arrivals map[string]float64) (*Timing, error) {
	t := &Timing{Arrival: make(map[string]float64, len(n.Cells)+len(n.Inputs))}
	for _, in := range n.Inputs {
		t.Arrival[in] = arrivals[in]
	}
	for _, c := range n.Cells {
		worst := 0.0
		for pin, in := range c.Inputs {
			a, ok := t.Arrival[in]
			if !ok {
				return nil, fmt.Errorf("mapping: cell %q input %q has no arrival", c.Name, in)
			}
			if v := a + dm.PinDelay(c.Gate, pin); v > worst {
				worst = v
			}
		}
		t.Arrival[c.Output] = worst
	}
	first := true
	for _, p := range n.Outputs {
		a, ok := t.Arrival[p.Net]
		if !ok {
			return nil, fmt.Errorf("mapping: output %q has no arrival", p.Name)
		}
		if first || a > t.Delay {
			t.Delay = a
			t.CriticalPort = p.Name
			first = false
		}
	}
	return t, nil
}

// CriticalPath returns the cells on a worst path to the critical
// output, from inputs to output.
func (n *Netlist) CriticalPath(dm genlib.DelayModel, arrivals map[string]float64) ([]*Cell, error) {
	t, err := n.Delay(dm, arrivals)
	if err != nil {
		return nil, err
	}
	driver := map[string]*Cell{}
	for _, c := range n.Cells {
		driver[c.Output] = c
	}
	var net string
	for _, p := range n.Outputs {
		if p.Name == t.CriticalPort {
			net = p.Net
		}
	}
	var path []*Cell
	for {
		c, ok := driver[net]
		if !ok {
			break // reached a primary input
		}
		path = append(path, c)
		// Follow the worst input.
		worstNet, worst := "", -1.0
		for pin, in := range c.Inputs {
			v := t.Arrival[in] + dm.PinDelay(c.Gate, pin)
			if v > worst {
				worst, worstNet = v, in
			}
		}
		net = worstNet
	}
	// Reverse to input->output order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, nil
}

// ToNetwork converts the netlist to a Boolean network for simulation
// and equivalence checking. Output ports whose name differs from the
// driven net become identity nodes.
func (n *Netlist) ToNetwork() (*network.Network, error) {
	nw := network.New(n.Name)
	for _, in := range n.Inputs {
		if _, err := nw.AddInput(in); err != nil {
			return nil, err
		}
	}
	for _, c := range n.Cells {
		rename := map[string]string{}
		var fanins []string
		seen := map[string]bool{}
		for pin, in := range c.Inputs {
			rename[c.Gate.Pins[pin].Name] = in
			if !seen[in] {
				seen[in] = true
				fanins = append(fanins, in)
			}
		}
		if _, err := nw.AddNode(c.Output, fanins, c.Gate.Expr.Rename(rename)); err != nil {
			return nil, err
		}
	}
	for _, p := range n.Outputs {
		if p.Name != p.Net {
			if nw.Node(p.Name) != nil {
				return nil, fmt.Errorf("mapping: output port %q collides with a net name", p.Name)
			}
			if _, err := nw.AddNode(p.Name, []string{p.Net}, logic.Variable(p.Net)); err != nil {
				return nil, err
			}
		}
		if err := nw.MarkOutput(p.Name); err != nil {
			return nil, err
		}
	}
	return nw, nil
}

// WriteBLIF emits the netlist using .gate constructs (mapped BLIF).
// The output is assembled with plain string and byte writes; a netlist
// of a hundred thousand cells renders without formatting a single net.
func (n *Netlist) WriteBLIF(w io.Writer) error {
	if g, ok := w.(interface{ Grow(int) }); ok {
		// An in-memory destination (bytes.Buffer, strings.Builder) is
		// sized once instead of doubling through the render.
		g.Grow(n.blifSize())
	}
	bw := bufio.NewWriterSize(w, 64<<10)
	bw.WriteString(".model ")
	bw.WriteString(n.Name)
	bw.WriteString("\n.inputs ")
	for i, in := range n.Inputs {
		if i > 0 {
			bw.WriteByte(' ')
		}
		bw.WriteString(in)
	}
	bw.WriteString("\n.outputs ")
	for i, p := range n.Outputs {
		if i > 0 {
			bw.WriteByte(' ')
		}
		bw.WriteString(p.Name)
	}
	bw.WriteByte('\n')
	for _, c := range n.Cells {
		bw.WriteString(".gate ")
		bw.WriteString(c.Gate.Name)
		for pin, in := range c.Inputs {
			bw.WriteByte(' ')
			bw.WriteString(c.Gate.Pins[pin].Name)
			bw.WriteByte('=')
			bw.WriteString(in)
		}
		bw.WriteByte(' ')
		bw.WriteString(c.Gate.Output)
		bw.WriteByte('=')
		bw.WriteString(c.Output)
		bw.WriteByte('\n')
	}
	for _, p := range n.Outputs {
		if p.Name != p.Net {
			// Identity via .names so no buffer gate is required.
			bw.WriteString(".names ")
			bw.WriteString(p.Net)
			bw.WriteByte(' ')
			bw.WriteString(p.Name)
			bw.WriteString("\n1 1\n")
		}
	}
	bw.WriteString(".end\n")
	return bw.Flush()
}

// blifSize returns the exact length of WriteBLIF's output.
func (n *Netlist) blifSize() int {
	size := len(".model \n.inputs \n.outputs \n.end\n") + len(n.Name)
	for i, in := range n.Inputs {
		size += len(in) + min(i, 1)
	}
	for i, p := range n.Outputs {
		size += len(p.Name) + min(i, 1)
		if p.Name != p.Net {
			size += len(".names  \n1 1\n") + len(p.Net) + len(p.Name)
		}
	}
	for _, c := range n.Cells {
		size += len(".gate  =\n") + len(c.Gate.Name) + len(c.Gate.Output) + len(c.Output)
		for pin, in := range c.Inputs {
			size += len(" =") + len(c.Gate.Pins[pin].Name) + len(in)
		}
	}
	return size
}

// Net identifies one net of a Builder: a dense index, assigned in
// creation order, that callers holding per-node arrays can store and
// pass back instead of the net's name.
type Net int32

// Builder incrementally constructs a valid netlist.
//
// Nets are dense IDs. Each ID has exactly one name and each name at
// most one ID, so a netlist built by ID is the same netlist a caller
// would get naming every net itself. The string methods (AddInput,
// FreshNet, AddCell, MarkOutput) are thin wrappers that resolve names
// to IDs.
//
// Per-net state lives in slices indexed by ID. The ids map holds only
// names the caller chose (inputs, reserved ports, nets referenced by
// name); generated "w<k>" names never enter it — the
// monotone counter covers them, and isGenerated tells whether a name
// collides with an already-issued one. A million-cell netlist thus
// costs the builder a few hundred map entries instead of millions.
//
// Validation is incremental: AddCellNets checks each cell against the
// nets driven so far, which is exactly what Netlist.Check verifies of
// a netlist whose cells arrive in topological order. Anything else — a
// cell read before its driver, a bad pin count, a second driver — only
// marks the build dirty, and Netlist then runs the full Check and the
// topological sort, so a faulty or out-of-order build gets exactly the
// verdict and error that Check gives after the sort.
type Builder struct {
	n *Netlist

	names   []string // per net: its name
	claimed []bool   // per net: the name is taken (input, reservation, claim or cell output)
	driven  []bool   // per net: driven by an input or an earlier cell
	ports   []Net    // per output port: its net

	ids map[string]Net // explicit (non-generated) names
	// wNets holds explicit nets whose names have the canonical "w<k>"
	// form of a name the counter has not reached yet, keyed by k:
	// NewNet skips a claimed one and adopts an unclaimed one, so no
	// name ever gets two IDs.
	wNets  map[int]Net
	genNet []Net // counter value k -> its net (-1 when skipped)
	ctr    int
	dirty  bool // some cell broke the in-order invariants; see Netlist

	wNames, cellNames numberedNames
	cellSlab          []Cell
	pinSlab           []string
	inputs            []Net // AddCell's resolved inputs, reused
}

// cellChunk and pinChunk are the slab sizes used beyond what Grow
// reserved.
const (
	cellChunk = 256
	pinChunk  = 1024
)

// NewBuilder starts a netlist with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		n:         &Netlist{Name: name},
		ids:       map[string]Net{},
		wNames:    numberedNames{prefix: 'w'},
		cellNames: numberedNames{prefix: 'U'},
	}
}

// Grow reserves room for cells more cells, each driving a new net, and
// pins more input pins, so the cell list, the per-net tables and the
// slabs cells and pins are carved from are each allocated once.
func (b *Builder) Grow(cells, pins int) {
	if cells > 0 {
		b.n.Cells = slices.Grow(b.n.Cells, cells)
		b.names = slices.Grow(b.names, cells)
		b.claimed = slices.Grow(b.claimed, cells)
		b.driven = slices.Grow(b.driven, cells)
		b.genNet = slices.Grow(b.genNet, cells)
		if cap(b.cellSlab)-len(b.cellSlab) < cells {
			b.cellSlab = make([]Cell, 0, cells)
		}
	}
	if pins > 0 && cap(b.pinSlab)-len(b.pinSlab) < pins {
		b.pinSlab = make([]string, 0, pins)
	}
}

// isGenerated reports whether name matches a "w<k>" net FreshNet has
// already handed out (k < ctr, canonical decimal form).
func (b *Builder) isGenerated(name string) bool {
	k, ok := wIndex(name)
	return ok && k < b.ctr
}

// wIndex parses a canonical "w<k>" name (no leading zeros) into k.
func wIndex(name string) (int, bool) {
	if len(name) < 2 || len(name) > 10 || name[0] != 'w' {
		return 0, false
	}
	if name[1] == '0' && len(name) > 2 {
		return 0, false // "w007" is not a canonical counter name
	}
	k := 0
	for i := 1; i < len(name); i++ {
		d := name[i]
		if d < '0' || d > '9' {
			return 0, false
		}
		k = k*10 + int(d-'0')
	}
	return k, true
}

// taken reports whether name is already claimed by any party.
func (b *Builder) taken(name string) bool {
	if id, ok := b.ids[name]; ok && b.claimed[id] {
		return true
	}
	return b.isGenerated(name)
}

// newNet appends a net with the given name.
func (b *Builder) newNet(name string) Net {
	id := Net(len(b.names))
	b.names = append(b.names, name)
	b.claimed = append(b.claimed, false)
	b.driven = append(b.driven, false)
	return id
}

// net resolves a name to its net, creating an unclaimed one for a
// name seen for the first time.
func (b *Builder) net(name string) Net {
	if id, ok := b.ids[name]; ok {
		return id
	}
	k, isW := wIndex(name)
	if isW && k < b.ctr {
		return b.genNet[k]
	}
	id := b.newNet(name)
	b.ids[name] = id
	if isW {
		if b.wNets == nil {
			b.wNets = map[int]Net{}
		}
		b.wNets[k] = id
	}
	return id
}

// AddInputNet declares a primary-input net and returns it.
func (b *Builder) AddInputNet(name string) (Net, error) {
	if b.taken(name) {
		return 0, fmt.Errorf("mapping: net %q already exists", name)
	}
	// Not taken means not driven either: a cell claims its output.
	id := b.net(name)
	b.claimed[id] = true
	b.driven[id] = true
	b.n.Inputs = append(b.n.Inputs, name)
	return id, nil
}

// AddInput declares a primary-input net.
func (b *Builder) AddInput(name string) error {
	_, err := b.AddInputNet(name)
	return err
}

// Reserve marks a name as taken (e.g. future port names) so FreshNet
// will not collide with it, and returns its net.
func (b *Builder) Reserve(name string) Net {
	id := b.net(name)
	b.claimed[id] = true
	return id
}

// NewNet returns a new net with a unique generated "w<k>" name.
func (b *Builder) NewNet() Net {
	for {
		k := b.ctr
		b.ctr++
		if id, ok := b.wNets[k]; ok {
			delete(b.wNets, k)
			if b.claimed[id] {
				b.genNet = append(b.genNet, -1)
				continue
			}
			// Referenced by name before the counter got here: it is
			// that same net.
			b.genNet = append(b.genNet, id)
			return id
		}
		id := b.newNet(b.wNames.name(k))
		b.genNet = append(b.genNet, id)
		return id
	}
}

// FreshNet returns a new unique net name.
func (b *Builder) FreshNet() string { return b.names[b.NewNet()] }

// AddCellNets appends a gate instance reading the input nets in pin
// order and driving output, and checks it against the nets driven so
// far. The inputs slice is copied; the caller may reuse it.
func (b *Builder) AddCellNets(g *genlib.Gate, inputs []Net, output Net) *Cell {
	if len(b.cellSlab) == cap(b.cellSlab) {
		b.cellSlab = make([]Cell, 0, cellChunk)
	}
	b.cellSlab = b.cellSlab[:len(b.cellSlab)+1]
	c := &b.cellSlab[len(b.cellSlab)-1]
	c.Name = b.cellNames.name(len(b.n.Cells))
	c.Gate = g
	c.Inputs = b.pins(len(inputs))
	c.Output = b.names[output]
	ok := len(inputs) == g.NumInputs() && !b.driven[output]
	for pin, in := range inputs {
		c.Inputs[pin] = b.names[in]
		ok = ok && b.driven[in]
	}
	if !ok {
		b.dirty = true
	}
	b.driven[output] = true
	b.claimed[output] = true
	b.n.Cells = append(b.n.Cells, c)
	return c
}

// pins carves an n-element input slice out of the pin slab.
func (b *Builder) pins(n int) []string {
	if n == 0 {
		return nil
	}
	if cap(b.pinSlab)-len(b.pinSlab) < n {
		sz := pinChunk
		if n > sz {
			sz = n
		}
		b.pinSlab = make([]string, 0, sz)
	}
	lo := len(b.pinSlab)
	b.pinSlab = b.pinSlab[:lo+n]
	return b.pinSlab[lo : lo+n : lo+n]
}

// AddCell appends a gate instance driving the given output net. The
// output net must have been obtained from FreshNet or be otherwise
// unused.
func (b *Builder) AddCell(g *genlib.Gate, inputs []string, output string) *Cell {
	b.inputs = b.inputs[:0]
	for _, in := range inputs {
		b.inputs = append(b.inputs, b.net(in))
	}
	return b.AddCellNets(g, b.inputs, b.net(output))
}

// MarkOutputNet exposes net under the port name.
func (b *Builder) MarkOutputNet(port string, net Net) {
	b.n.Outputs = append(b.n.Outputs, OutputPort{Name: port, Net: b.names[net]})
	b.ports = append(b.ports, net)
}

// MarkOutput exposes net under the port name.
func (b *Builder) MarkOutput(port, net string) { b.MarkOutputNet(port, b.net(net)) }

// Netlist validates and returns the built netlist. Cells are sorted
// topologically if they were not added in order.
func (b *Builder) Netlist() (*Netlist, error) {
	// Fast path: every cell was checked as it was added, in order, so
	// only the ports remain — together that is Netlist.Check.
	if !b.dirty && b.portsDriven() {
		return b.n, nil
	}
	if err := b.n.Check(); err == nil {
		return b.n, nil
	}
	if err := b.n.topoSortCells(); err != nil {
		return nil, err
	}
	if err := b.n.Check(); err != nil {
		return nil, err
	}
	return b.n, nil
}

// portsDriven reports whether every output port sits on a driven net.
func (b *Builder) portsDriven() bool {
	for _, p := range b.ports {
		if !b.driven[p] {
			return false
		}
	}
	return true
}

// topoSortCells reorders cells so drivers precede users.
func (n *Netlist) topoSortCells() error {
	driver := map[string]*Cell{}
	for _, c := range n.Cells {
		if prev, dup := driver[c.Output]; dup {
			return fmt.Errorf("mapping: net %q driven by %q and %q", c.Output, prev.Name, c.Name)
		}
		driver[c.Output] = c
	}
	state := map[*Cell]int{} // 0 new, 1 visiting, 2 done
	var order []*Cell
	var visit func(c *Cell) error
	visit = func(c *Cell) error {
		switch state[c] {
		case 1:
			return fmt.Errorf("mapping: combinational cycle through cell %q", c.Name)
		case 2:
			return nil
		}
		state[c] = 1
		for _, in := range c.Inputs {
			if d, ok := driver[in]; ok {
				if err := visit(d); err != nil {
					return err
				}
			}
		}
		state[c] = 2
		order = append(order, c)
		return nil
	}
	for _, c := range n.Cells {
		if err := visit(c); err != nil {
			return err
		}
	}
	n.Cells = order
	return nil
}

// numberedNames hands out the names prefix+"0", prefix+"1", ... cut
// from one shared string per batch, so naming a million nets or cells
// costs a few thousand allocations instead of a million.
type numberedNames struct {
	prefix byte
	lo     int     // number of the batch's first name
	s      string  // the batch's names, concatenated
	ends   []int32 // ends[i] is where name lo+i ends in s
	buf    []byte
}

// numberedBatch is how many names one batch string holds.
const numberedBatch = 512

// name returns prefix followed by k in decimal.
func (nn *numberedNames) name(k int) string {
	i := k - nn.lo
	if i < 0 || i >= len(nn.ends) {
		nn.fill(k)
		i = 0
	}
	start := int32(0)
	if i > 0 {
		start = nn.ends[i-1]
	}
	return nn.s[start:nn.ends[i]]
}

// fill makes k the first name of a new batch. Consecutive numbers
// are produced by incrementing the previous one's decimal digits.
func (nn *numberedNames) fill(k int) {
	nn.lo = k
	nn.buf = nn.buf[:0]
	nn.ends = nn.ends[:0]
	digits := strconv.AppendInt(make([]byte, 0, 20), int64(k), 10)
	for j := 0; j < numberedBatch; j++ {
		nn.buf = append(nn.buf, nn.prefix)
		nn.buf = append(nn.buf, digits...)
		nn.ends = append(nn.ends, int32(len(nn.buf)))
		i := len(digits) - 1
		for i >= 0 && digits[i] == '9' {
			digits[i] = '0'
			i--
		}
		if i < 0 {
			digits = append([]byte{'1'}, digits...)
		} else {
			digits[i]++
		}
	}
	nn.s = string(nn.buf)
}
