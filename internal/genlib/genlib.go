// Package genlib models standard-cell gate libraries in the Berkeley
// genlib format used by SIS/MIS technology mappers:
//
//	GATE <name> <area> <output>=<expression>;
//	PIN <pin|*> <phase> <input-load> <max-load>
//	    <rise-block> <rise-fanout> <fall-block> <fall-fanout>
//
// Following the paper (footnote 4), the mapping delay model is
// load-independent: only the block (intrinsic) delays are used and the
// fanout (load) coefficients are ignored.
package genlib

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"dagcover/internal/logic"
)

// Phase is a pin's polarity relationship to the gate output.
type Phase int

const (
	// PhaseUnknown means the output is neither monotone increasing
	// nor decreasing in this pin.
	PhaseUnknown Phase = iota
	// PhaseInv means the output falls when the pin rises.
	PhaseInv
	// PhaseNonInv means the output rises when the pin rises.
	PhaseNonInv
)

func (p Phase) String() string {
	switch p {
	case PhaseInv:
		return "INV"
	case PhaseNonInv:
		return "NONINV"
	}
	return "UNKNOWN"
}

// Pin describes one input pin of a gate.
type Pin struct {
	Name       string
	Phase      Phase
	InputLoad  float64
	MaxLoad    float64
	RiseBlock  float64 // intrinsic rise delay
	RiseFanout float64 // load-dependent rise coefficient (unused in mapping)
	FallBlock  float64 // intrinsic fall delay
	FallFanout float64 // load-dependent fall coefficient (unused in mapping)
}

// Intrinsic returns the load-independent pin-to-output delay: the
// worse of the rise and fall block delays.
func (p Pin) Intrinsic() float64 {
	if p.RiseBlock > p.FallBlock {
		return p.RiseBlock
	}
	return p.FallBlock
}

// Gate is a single-output library cell.
type Gate struct {
	Name   string
	Area   float64
	Output string
	Expr   *logic.Expr
	Pins   []Pin
}

// NumInputs returns the number of input pins.
func (g *Gate) NumInputs() int { return len(g.Pins) }

// Formals returns the ordered input pin names.
func (g *Gate) Formals() []string {
	out := make([]string, len(g.Pins))
	for i, p := range g.Pins {
		out[i] = p.Name
	}
	return out
}

// Library is an ordered collection of gates.
type Library struct {
	Name   string
	Gates  []*Gate
	byName map[string]*Gate
}

// NewLibrary returns an empty library.
func NewLibrary(name string) *Library {
	return &Library{Name: name, byName: map[string]*Gate{}}
}

// Add validates and inserts a gate.
func (l *Library) Add(g *Gate) error {
	if g.Name == "" {
		return fmt.Errorf("genlib: gate with empty name")
	}
	if _, dup := l.byName[g.Name]; dup {
		return fmt.Errorf("genlib: duplicate gate %q", g.Name)
	}
	if g.Expr == nil {
		return fmt.Errorf("genlib: gate %q has no function", g.Name)
	}
	pins := make(map[string]bool, len(g.Pins))
	for _, p := range g.Pins {
		if pins[p.Name] {
			return fmt.Errorf("genlib: gate %q has duplicate pin %q", g.Name, p.Name)
		}
		pins[p.Name] = true
	}
	for _, v := range g.Expr.Vars() {
		if !pins[v] {
			return fmt.Errorf("genlib: gate %q uses input %q with no PIN record", g.Name, v)
		}
	}
	l.Gates = append(l.Gates, g)
	l.byName[g.Name] = g
	return nil
}

// Gate returns the named gate, or nil.
func (l *Library) Gate(name string) *Gate { return l.byName[name] }

// GateFunc implements the blif.GateResolver interface.
func (l *Library) GateFunc(name string) (*logic.Expr, []string, bool) {
	g := l.byName[name]
	if g == nil {
		return nil, nil, false
	}
	return g.Expr, g.Formals(), true
}

// Nand2 returns the minimum-area 2-input NAND gate, or nil.
func (l *Library) Nand2() *Gate { return l.cheapest("!(a*b)") }

// Buffer returns the minimum-area buffer (identity) gate, or nil.
func (l *Library) Buffer() *Gate { return l.cheapest("a") }

func (l *Library) cheapest(canon string) *Gate {
	want := logic.MustParse(canon)
	var best *Gate
	for _, g := range l.Gates {
		if g.NumInputs() != len(want.Vars()) {
			continue
		}
		// Rename the gate expression onto a, b, ... in pin order.
		ren := map[string]string{}
		for i, p := range g.Pins {
			ren[p.Name] = string(rune('a' + i))
		}
		eq, err := logic.Equivalent(g.Expr.Rename(ren), want)
		if err != nil || !eq {
			continue
		}
		if best == nil || g.Area < best.Area {
			best = g
		}
	}
	return best
}

// Stats summarizes the library.
type Stats struct {
	Gates     int
	MaxInputs int
	MinArea   float64
	MaxArea   float64
}

// Stats computes summary statistics.
func (l *Library) Stats() Stats {
	s := Stats{Gates: len(l.Gates)}
	for i, g := range l.Gates {
		if g.NumInputs() > s.MaxInputs {
			s.MaxInputs = g.NumInputs()
		}
		if i == 0 || g.Area < s.MinArea {
			s.MinArea = g.Area
		}
		if g.Area > s.MaxArea {
			s.MaxArea = g.Area
		}
	}
	return s
}

// Parse reads a genlib library from r.
func Parse(name string, r io.Reader) (*Library, error) {
	lib := NewLibrary(name)
	toks, err := tokenize(r)
	if err != nil {
		return nil, err
	}
	i := 0
	for i < len(toks) {
		switch strings.ToUpper(toks[i]) {
		case "GATE":
			g, next, err := parseGate(toks, i)
			if err != nil {
				return nil, err
			}
			if err := lib.Add(g); err != nil {
				return nil, err
			}
			i = next
		case "LATCH":
			// Sequential cells are outside the scope of combinational
			// mapping; skip to the next GATE/LATCH keyword.
			i++
			for i < len(toks) {
				up := strings.ToUpper(toks[i])
				if up == "GATE" || up == "LATCH" {
					break
				}
				i++
			}
		default:
			return nil, fmt.Errorf("genlib: unexpected token %q", toks[i])
		}
	}
	if len(lib.Gates) == 0 {
		return nil, fmt.Errorf("genlib: library %q contains no gates", name)
	}
	return lib, nil
}

// ParseString parses genlib text.
func ParseString(name, s string) (*Library, error) {
	return Parse(name, strings.NewReader(s))
}

// parseGate parses one GATE record starting at toks[i] == "GATE".
func parseGate(toks []string, i int) (*Gate, int, error) {
	// GATE name area out=expr... ; PIN ...
	if i+3 >= len(toks) {
		return nil, 0, fmt.Errorf("genlib: truncated GATE record")
	}
	g := &Gate{Name: toks[i+1]}
	area, err := strconv.ParseFloat(toks[i+2], 64)
	if err != nil {
		return nil, 0, fmt.Errorf("genlib: gate %q: bad area %q", g.Name, toks[i+2])
	}
	g.Area = area
	// The function is everything up to the ';' token (tokenizer keeps
	// ';' separate).
	j := i + 3
	var fn strings.Builder
	for j < len(toks) && toks[j] != ";" {
		fn.WriteString(toks[j])
		fn.WriteByte(' ')
		j++
	}
	if j == len(toks) {
		return nil, 0, fmt.Errorf("genlib: gate %q: missing ';'", g.Name)
	}
	j++ // skip ';'
	eq := strings.IndexByte(fn.String(), '=')
	if eq < 0 {
		return nil, 0, fmt.Errorf("genlib: gate %q: function %q lacks '='", g.Name, fn.String())
	}
	g.Output = strings.TrimSpace(fn.String()[:eq])
	expr, err := logic.Parse(strings.TrimSpace(fn.String()[eq+1:]))
	if err != nil {
		return nil, 0, fmt.Errorf("genlib: gate %q: %v", g.Name, err)
	}
	g.Expr = expr

	// PIN records.
	var star *Pin
	var pins []Pin
	for j < len(toks) && strings.ToUpper(toks[j]) == "PIN" {
		if j+8 >= len(toks) {
			return nil, 0, fmt.Errorf("genlib: gate %q: truncated PIN record", g.Name)
		}
		p := Pin{Name: toks[j+1]}
		switch strings.ToUpper(toks[j+2]) {
		case "INV":
			p.Phase = PhaseInv
		case "NONINV":
			p.Phase = PhaseNonInv
		case "UNKNOWN":
			p.Phase = PhaseUnknown
		default:
			return nil, 0, fmt.Errorf("genlib: gate %q pin %q: bad phase %q", g.Name, p.Name, toks[j+2])
		}
		nums := make([]float64, 6)
		for k := 0; k < 6; k++ {
			v, err := strconv.ParseFloat(toks[j+3+k], 64)
			if err != nil {
				return nil, 0, fmt.Errorf("genlib: gate %q pin %q: bad number %q", g.Name, p.Name, toks[j+3+k])
			}
			nums[k] = v
		}
		p.InputLoad, p.MaxLoad = nums[0], nums[1]
		p.RiseBlock, p.RiseFanout = nums[2], nums[3]
		p.FallBlock, p.FallFanout = nums[4], nums[5]
		if p.Name == "*" {
			pp := p
			star = &pp
		} else {
			pins = append(pins, p)
		}
		j += 9
	}
	vars := expr.Vars()
	if star != nil {
		if len(pins) > 0 {
			return nil, 0, fmt.Errorf("genlib: gate %q mixes PIN * with named pins", g.Name)
		}
		for _, v := range vars {
			p := *star
			p.Name = v
			pins = append(pins, p)
		}
	}
	if len(pins) == 0 && len(vars) > 0 {
		return nil, 0, fmt.Errorf("genlib: gate %q has inputs but no PIN records", g.Name)
	}
	g.Pins = pins
	return g, j, nil
}

// tokenize splits genlib text into tokens; ';' and '#' handled.
func tokenize(r io.Reader) ([]string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var toks []string
	for sc.Scan() {
		lineText := sc.Text()
		if idx := strings.IndexByte(lineText, '#'); idx >= 0 {
			lineText = lineText[:idx]
		}
		// Keep ';' as its own token.
		lineText = strings.ReplaceAll(lineText, ";", " ; ")
		toks = append(toks, strings.Fields(lineText)...)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("genlib: %v", err)
	}
	return toks, nil
}

// Write renders the library as genlib text.
func Write(w io.Writer, l *Library) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# library %s: %d gates\n", l.Name, len(l.Gates))
	for _, g := range l.Gates {
		fmt.Fprintf(bw, "GATE %s %g %s=%s;\n", g.Name, g.Area, g.Output, g.Expr.String())
		for _, p := range g.Pins {
			fmt.Fprintf(bw, "  PIN %s %s %g %g %g %g %g %g\n",
				p.Name, p.Phase, p.InputLoad, p.MaxLoad,
				p.RiseBlock, p.RiseFanout, p.FallBlock, p.FallFanout)
		}
	}
	return bw.Flush()
}

// DelayModel maps a (gate, input pin) pair to a pin-to-output delay.
type DelayModel interface {
	// PinDelay returns the delay from input pin to the gate output.
	PinDelay(g *Gate, pin int) float64
	// Name identifies the model in reports.
	Name() string
}

// IntrinsicDelay uses the genlib block delays with the load term
// forced to zero (the paper's experimental model, footnote 4).
type IntrinsicDelay struct{}

// PinDelay implements DelayModel.
func (IntrinsicDelay) PinDelay(g *Gate, pin int) float64 { return g.Pins[pin].Intrinsic() }

// Name implements DelayModel.
func (IntrinsicDelay) Name() string { return "intrinsic" }

// UnitDelay charges one unit per gate regardless of pin; mapped depth
// equals the gate count on the longest path (the model behind the
// integer-valued 44-1/44-3 tables).
type UnitDelay struct{}

// PinDelay implements DelayModel.
func (UnitDelay) PinDelay(*Gate, int) float64 { return 1 }

// Name implements DelayModel.
func (UnitDelay) Name() string { return "unit" }

// FunctionKey returns a canonical rendering of the gate function with
// pins renamed positionally (p0, p1, ...). Gates with equal keys are
// drop-in replacements for one another (same function, same pin
// order) — the basis for discrete gate sizing.
func (g *Gate) FunctionKey() string {
	ren := map[string]string{}
	for i, p := range g.Pins {
		ren[p.Name] = fmt.Sprintf("p%d", i)
	}
	return g.Expr.Rename(ren).String()
}

// VariantGroups partitions the library by FunctionKey: each group
// holds interchangeable drive-strength variants sorted by area.
func VariantGroups(l *Library) map[string][]*Gate {
	groups := map[string][]*Gate{}
	for _, g := range l.Gates {
		key := g.FunctionKey()
		groups[key] = append(groups[key], g)
	}
	for _, gs := range groups {
		sort.Slice(gs, func(i, j int) bool { return gs[i].Area < gs[j].Area })
	}
	return groups
}
