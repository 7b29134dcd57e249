// Package bench generates benchmark circuits for the experiments:
// parameterized arithmetic/ECC/control generators and an ISCAS-85-like
// suite of stand-ins for the circuits used in the paper's tables
// (C2670, C3540, C5315, C6288, C7552 and the smaller classics).
//
// The original ISCAS-85 netlists are not redistributable here; the
// stand-ins reproduce the structural features the experiments depend
// on — function class, depth, reconvergence, multi-fanout density and
// approximate size (see DESIGN.md §4). C6288 is special: the real
// circuit is exactly a 16x16 array multiplier, which ArrayMultiplier
// reproduces faithfully.
//
// All generators are deterministic. Multi-bit ports use the naming
// convention name0, name1, ... with bit 0 least significant.
package bench

import (
	"fmt"
	"slices"

	"dagcover/internal/logic"
	"dagcover/internal/network"
)

// builder wraps network construction with panic-on-error semantics;
// generator bugs are programming errors, not runtime conditions.
type builder struct {
	nw *network.Network
}

func newBuilder(name string) *builder { return &builder{nw: network.New(name)} }

func (b *builder) in(name string) string {
	if _, err := b.nw.AddInput(name); err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	return name
}

// node adds a logic node; fn is parsed and must use only the fanins.
func (b *builder) node(name, fn string, fanins ...string) string {
	e, err := logic.Parse(fn)
	if err != nil {
		panic(fmt.Sprintf("bench: node %s: %v", name, err))
	}
	if _, err := b.nw.AddNode(name, fanins, e); err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	return name
}

func (b *builder) out(name string) {
	if err := b.nw.MarkOutput(name); err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
}

func (b *builder) done() *network.Network {
	if err := b.nw.Check(); err != nil {
		panic(fmt.Sprintf("bench: generated network invalid: %v", err))
	}
	return b.nw
}

func bit(prefix string, i int) string { return fmt.Sprintf("%s%d", prefix, i) }

// RippleAdder builds an n-bit ripple-carry adder: inputs a0..a(n-1),
// b0.., cin; outputs s0..s(n-1), cout.
func RippleAdder(n int) *network.Network {
	b := newBuilder(fmt.Sprintf("radd%d", n))
	for i := 0; i < n; i++ {
		b.in(bit("a", i))
	}
	for i := 0; i < n; i++ {
		b.in(bit("b", i))
	}
	carry := b.in("cin")
	for i := 0; i < n; i++ {
		a, bb := bit("a", i), bit("b", i)
		s := b.node(bit("s", i), fmt.Sprintf("%s^%s^%s", a, bb, carry), a, bb, carry)
		b.out(s)
		carry = b.node(fmt.Sprintf("c%d", i+1),
			fmt.Sprintf("%s*%s+%s*%s+%s*%s", a, bb, a, carry, bb, carry), a, bb, carry)
	}
	cout := b.node("cout", carry, carry)
	b.out(cout)
	return b.done()
}

// CarrySelectAdder builds an n-bit carry-select adder with the given
// block size: same ports as RippleAdder, shallower carry chain, more
// area — a structurally distinct adder for mapping comparisons.
func CarrySelectAdder(n, block int) *network.Network {
	if block < 1 {
		block = 4
	}
	b := newBuilder(fmt.Sprintf("csadd%d_%d", n, block))
	for i := 0; i < n; i++ {
		b.in(bit("a", i))
	}
	for i := 0; i < n; i++ {
		b.in(bit("b", i))
	}
	carry := b.in("cin")
	for lo := 0; lo < n; lo += block {
		hi := lo + block
		if hi > n {
			hi = n
		}
		// Two speculative ripple chains (carry-in 0 and 1).
		c0, c1 := "", ""
		var s0s, s1s []string
		for i := lo; i < hi; i++ {
			a, bb := bit("a", i), bit("b", i)
			if i == lo {
				s0 := b.node(fmt.Sprintf("s0_%d", i), fmt.Sprintf("%s^%s", a, bb), a, bb)
				s1 := b.node(fmt.Sprintf("s1_%d", i), fmt.Sprintf("!(%s^%s)", a, bb), a, bb)
				c0 = b.node(fmt.Sprintf("c0_%d", i), fmt.Sprintf("%s*%s", a, bb), a, bb)
				c1 = b.node(fmt.Sprintf("c1_%d", i), fmt.Sprintf("%s+%s", a, bb), a, bb)
				s0s, s1s = append(s0s, s0), append(s1s, s1)
				continue
			}
			s0 := b.node(fmt.Sprintf("s0_%d", i), fmt.Sprintf("%s^%s^%s", a, bb, c0), a, bb, c0)
			s1 := b.node(fmt.Sprintf("s1_%d", i), fmt.Sprintf("%s^%s^%s", a, bb, c1), a, bb, c1)
			c0 = b.node(fmt.Sprintf("c0_%d", i),
				fmt.Sprintf("%s*%s+%s*%s+%s*%s", a, bb, a, c0, bb, c0), a, bb, c0)
			c1 = b.node(fmt.Sprintf("c1_%d", i),
				fmt.Sprintf("%s*%s+%s*%s+%s*%s", a, bb, a, c1, bb, c1), a, bb, c1)
			s0s, s1s = append(s0s, s0), append(s1s, s1)
		}
		// Select by the incoming carry.
		for i := lo; i < hi; i++ {
			s := b.node(bit("s", i),
				fmt.Sprintf("%s*%s+!%s*%s", carry, s1s[i-lo], carry, s0s[i-lo]),
				carry, s1s[i-lo], s0s[i-lo])
			b.out(s)
		}
		carry = b.node(fmt.Sprintf("c%d", hi),
			fmt.Sprintf("%s*%s+!%s*%s", carry, c1, carry, c0), carry, c1, c0)
	}
	cout := b.node("cout", carry, carry)
	b.out(cout)
	return b.done()
}

// ArrayMultiplier builds an n x n array multiplier (inputs a0.., b0..;
// outputs p0..p(2n-1)). For n=16 this is structurally the real C6288.
func ArrayMultiplier(n int) *network.Network {
	b := newBuilder(fmt.Sprintf("mult%d", n))
	for i := 0; i < n; i++ {
		b.in(bit("a", i))
	}
	for j := 0; j < n; j++ {
		b.in(bit("b", j))
	}
	// Partial products.
	pp := make([][]string, n)
	for j := 0; j < n; j++ {
		pp[j] = make([]string, n)
		for i := 0; i < n; i++ {
			pp[j][i] = b.node(fmt.Sprintf("pp%d_%d", j, i),
				fmt.Sprintf("%s*%s", bit("a", i), bit("b", j)), bit("a", i), bit("b", j))
		}
	}
	// Accumulate row by row with ripple adders, indexed by absolute
	// bit weight — the classic add-and-shift array (C6288 style:
	// deep, heavily reconvergent).
	acc := make([]string, 2*n)
	copy(acc, pp[0])
	for j := 1; j < n; j++ {
		carry := ""
		for i := 0; i < n; i++ {
			w := j + i
			name := fmt.Sprintf("r%d_%d", j, i)
			acc[w], carry = b.addBits(name, acc[w], pp[j][i], carry)
		}
		acc[j+n] = carry
	}
	for w := 0; w < 2*n; w++ {
		if acc[w] == "" {
			continue // the unused top weight of a 1x1 multiplier
		}
		b.out(b.node(bit("p", w), acc[w], acc[w]))
	}
	return b.done()
}

// addBits sums up to three optional one-bit signals, returning the
// sum and carry signals ("" where absent).
func (b *builder) addBits(name, x, y, z string) (sum, carry string) {
	var in []string
	for _, s := range []string{x, y, z} {
		if s != "" {
			in = append(in, s)
		}
	}
	switch len(in) {
	case 0:
		return "", ""
	case 1:
		return in[0], ""
	case 2:
		sum = b.node(name+"s", fmt.Sprintf("%s^%s", in[0], in[1]), in[0], in[1])
		carry = b.node(name+"c", fmt.Sprintf("%s*%s", in[0], in[1]), in[0], in[1])
		return sum, carry
	default:
		sum = b.node(name+"s", fmt.Sprintf("%s^%s^%s", in[0], in[1], in[2]), in[0], in[1], in[2])
		carry = b.node(name+"c",
			fmt.Sprintf("%s*%s+%s*%s+%s*%s", in[0], in[1], in[0], in[2], in[1], in[2]),
			in[0], in[1], in[2])
		return sum, carry
	}
}

// Comparator builds an n-bit magnitude comparator: outputs lt, eq, gt.
func Comparator(n int) *network.Network {
	b := newBuilder(fmt.Sprintf("cmp%d", n))
	for i := 0; i < n; i++ {
		b.in(bit("a", i))
	}
	for i := 0; i < n; i++ {
		b.in(bit("b", i))
	}
	// From MSB down: eq chain and lt/gt accumulation.
	eq := ""
	lt := ""
	gt := ""
	for i := n - 1; i >= 0; i-- {
		a, bb := bit("a", i), bit("b", i)
		eqI := b.node(fmt.Sprintf("eq%d", i), fmt.Sprintf("!(%s^%s)", a, bb), a, bb)
		ltI := b.node(fmt.Sprintf("lt%d", i), fmt.Sprintf("!%s*%s", a, bb), a, bb)
		gtI := b.node(fmt.Sprintf("gt%d", i), fmt.Sprintf("%s*!%s", a, bb), a, bb)
		if eq == "" {
			eq, lt, gt = eqI, ltI, gtI
			continue
		}
		lt = b.node(fmt.Sprintf("ltacc%d", i), fmt.Sprintf("%s+%s*%s", lt, eq, ltI), lt, eq, ltI)
		gt = b.node(fmt.Sprintf("gtacc%d", i), fmt.Sprintf("%s+%s*%s", gt, eq, gtI), gt, eq, gtI)
		eq = b.node(fmt.Sprintf("eqacc%d", i), fmt.Sprintf("%s*%s", eq, eqI), eq, eqI)
	}
	b.out(b.node("lt", lt, lt))
	b.out(b.node("eq", eq, eq))
	b.out(b.node("gt", gt, gt))
	return b.done()
}

// ParityTree builds an n-input XOR tree with output "par".
func ParityTree(n int) *network.Network {
	b := newBuilder(fmt.Sprintf("par%d", n))
	var cur []string
	for i := 0; i < n; i++ {
		cur = append(cur, b.in(bit("x", i)))
	}
	level := 0
	for len(cur) > 1 {
		var next []string
		for i := 0; i+1 < len(cur); i += 2 {
			next = append(next, b.node(fmt.Sprintf("t%d_%d", level, i/2),
				fmt.Sprintf("%s^%s", cur[i], cur[i+1]), cur[i], cur[i+1]))
		}
		if len(cur)%2 == 1 {
			next = append(next, cur[len(cur)-1])
		}
		cur = next
		level++
	}
	b.out(b.node("par", cur[0], cur[0]))
	return b.done()
}

// MuxTree builds a 2^k-to-1 multiplexer: data d0.., selects s0..,
// output "y".
func MuxTree(k int) *network.Network {
	b := newBuilder(fmt.Sprintf("mux%d", 1<<k))
	var cur []string
	for i := 0; i < 1<<k; i++ {
		cur = append(cur, b.in(bit("d", i)))
	}
	var sels []string
	for i := 0; i < k; i++ {
		sels = append(sels, b.in(bit("s", i)))
	}
	for lvl := 0; lvl < k; lvl++ {
		s := sels[lvl]
		var next []string
		for i := 0; i+1 < len(cur); i += 2 {
			next = append(next, b.node(fmt.Sprintf("m%d_%d", lvl, i/2),
				fmt.Sprintf("!%s*%s+%s*%s", s, cur[i], s, cur[i+1]), s, cur[i], cur[i+1]))
		}
		cur = next
	}
	b.out(b.node("y", cur[0], cur[0]))
	return b.done()
}

// Decoder builds an n-to-2^n decoder with enable: outputs y0..y(2^n-1).
func Decoder(n int) *network.Network {
	b := newBuilder(fmt.Sprintf("dec%d", n))
	var addr []string
	for i := 0; i < n; i++ {
		addr = append(addr, b.in(bit("a", i)))
	}
	en := b.in("en")
	for v := 0; v < 1<<n; v++ {
		terms := en
		fanins := []string{en}
		for i := 0; i < n; i++ {
			lit := addr[i]
			if v>>uint(i)&1 == 0 {
				lit = "!" + lit
			}
			terms += "*" + lit
			fanins = append(fanins, addr[i])
		}
		b.out(b.node(bit("y", v), terms, fanins...))
	}
	return b.done()
}

// PriorityEncoder builds an n-input priority encoder: the highest
// asserted request wins; outputs the binary index plus "valid".
func PriorityEncoder(n int) *network.Network {
	b := newBuilder(fmt.Sprintf("prio%d", n))
	var req []string
	for i := 0; i < n; i++ {
		req = append(req, b.in(bit("r", i)))
	}
	// grant[i] = r[i] & !r[i+1] & ... & !r[n-1]
	higherOff := ""
	grants := make([]string, n)
	for i := n - 1; i >= 0; i-- {
		if higherOff == "" {
			grants[i] = req[i]
			higherOff = b.node(fmt.Sprintf("off%d", i), "!"+req[i], req[i])
			continue
		}
		grants[i] = b.node(fmt.Sprintf("g%d", i),
			fmt.Sprintf("%s*%s", req[i], higherOff), req[i], higherOff)
		if i > 0 {
			higherOff = b.node(fmt.Sprintf("off%d", i),
				fmt.Sprintf("%s*!%s", higherOff, req[i]), higherOff, req[i])
		}
	}
	bits := 0
	for 1<<bits < n {
		bits++
	}
	for k := 0; k < bits; k++ {
		var ors []string
		for i := 0; i < n; i++ {
			if i>>uint(k)&1 == 1 {
				ors = append(ors, grants[i])
			}
		}
		expr := ""
		for i, o := range ors {
			if i > 0 {
				expr += "+"
			}
			expr += o
		}
		b.out(b.node(bit("idx", k), expr, ors...))
	}
	vexpr := ""
	for i, r := range req {
		if i > 0 {
			vexpr += "+"
		}
		vexpr += r
	}
	b.out(b.node("valid", vexpr, req...))
	return b.done()
}

// ALU builds an n-bit ALU with a 2-bit opcode:
// 00 add, 01 and, 10 or, 11 xor. Outputs y0.. and carry-out "cy".
func ALU(n int) *network.Network {
	b := newBuilder(fmt.Sprintf("alu%d", n))
	for i := 0; i < n; i++ {
		b.in(bit("a", i))
	}
	for i := 0; i < n; i++ {
		b.in(bit("b", i))
	}
	op0 := b.in("op0")
	op1 := b.in("op1")
	carry := ""
	for i := 0; i < n; i++ {
		a, bb := bit("a", i), bit("b", i)
		var s string
		if carry == "" {
			s = b.node(fmt.Sprintf("add%d", i), fmt.Sprintf("%s^%s", a, bb), a, bb)
			carry = b.node(fmt.Sprintf("cc%d", i), fmt.Sprintf("%s*%s", a, bb), a, bb)
		} else {
			s = b.node(fmt.Sprintf("add%d", i), fmt.Sprintf("%s^%s^%s", a, bb, carry), a, bb, carry)
			carry = b.node(fmt.Sprintf("cc%d", i),
				fmt.Sprintf("%s*%s+%s*%s+%s*%s", a, bb, a, carry, bb, carry), a, bb, carry)
		}
		andv := b.node(fmt.Sprintf("and%d", i), fmt.Sprintf("%s*%s", a, bb), a, bb)
		orv := b.node(fmt.Sprintf("or%d", i), fmt.Sprintf("%s+%s", a, bb), a, bb)
		xorv := b.node(fmt.Sprintf("xor%d", i), fmt.Sprintf("%s^%s", a, bb), a, bb)
		y := b.node(bit("y", i),
			fmt.Sprintf("!%s*!%s*%s + !%s*%s*%s + %s*!%s*%s + %s*%s*%s",
				op1, op0, s,
				op1, op0, andv,
				op1, op0, orv,
				op1, op0, xorv),
			op1, op0, s, andv, orv, xorv)
		b.out(y)
	}
	b.out(b.node("cy", carry, carry))
	return b.done()
}

// hammingParityBits returns the number of check bits for d data bits.
func hammingParityBits(d int) int {
	p := 0
	for (1 << p) < d+p+1 {
		p++
	}
	return p
}

// HammingEncoder builds a single-error-correcting Hamming encoder for
// d data bits: inputs d0..; outputs the codeword bits c1..cN
// (positions 1..N, powers of two are check bits).
func HammingEncoder(d int) *network.Network {
	b := newBuilder(fmt.Sprintf("henc%d", d))
	p := hammingParityBits(d)
	n := d + p
	// Assign data bits to non-power-of-two positions.
	dataAt := map[int]string{}
	next := 0
	for pos := 1; pos <= n; pos++ {
		if pos&(pos-1) == 0 {
			continue
		}
		dataAt[pos] = b.in(bit("d", next))
		next++
	}
	for pos := 1; pos <= n; pos++ {
		if pos&(pos-1) != 0 {
			b.out(b.node(fmt.Sprintf("c%d", pos), dataAt[pos], dataAt[pos]))
			continue
		}
		// Check bit: parity of covered data positions.
		var terms []string
		for dp, name := range dataAt {
			if dp&pos != 0 {
				terms = append(terms, name)
			}
		}
		slices.Sort(terms)
		expr := terms[0]
		for _, t := range terms[1:] {
			expr += "^" + t
		}
		b.out(b.node(fmt.Sprintf("c%d", pos), expr, terms...))
	}
	return b.done()
}

// HammingDecoder builds the matching single-error corrector: inputs
// c1..cN (possibly with one flipped bit), outputs the corrected data
// bits d0.. — the C499/C1355 function class.
func HammingDecoder(d int) *network.Network {
	b := newBuilder(fmt.Sprintf("hdec%d", d))
	p := hammingParityBits(d)
	n := d + p
	for pos := 1; pos <= n; pos++ {
		b.in(fmt.Sprintf("c%d", pos))
	}
	// Syndrome bits.
	var syn []string
	for k := 0; k < p; k++ {
		mask := 1 << k
		var terms []string
		for pos := 1; pos <= n; pos++ {
			if pos&mask != 0 {
				terms = append(terms, fmt.Sprintf("c%d", pos))
			}
		}
		expr := terms[0]
		for _, t := range terms[1:] {
			expr += "^" + t
		}
		syn = append(syn, b.node(fmt.Sprintf("syn%d", k), expr, terms...))
	}
	// Correct each data position: flip when syndrome == position.
	next := 0
	for pos := 1; pos <= n; pos++ {
		if pos&(pos-1) == 0 {
			continue
		}
		var fanins []string
		expr := ""
		for k := 0; k < p; k++ {
			lit := syn[k]
			if pos>>uint(k)&1 == 0 {
				lit = "!" + lit
			}
			if k > 0 {
				expr += "*"
			}
			expr += lit
			fanins = append(fanins, syn[k])
		}
		hit := b.node(fmt.Sprintf("hit%d", pos), expr, fanins...)
		c := fmt.Sprintf("c%d", pos)
		b.out(b.node(bit("d", next), fmt.Sprintf("%s^%s", c, hit), c, hit))
		next++
	}
	return b.done()
}

// RandomDAG builds a reproducible random circuit with the given
// inputs, gates and seed; roughly half the terminal nodes become
// outputs.
func RandomDAG(nIn, nGates int, seed int64) *network.Network {
	b := newBuilder(fmt.Sprintf("rnd%d_%d_%d", nIn, nGates, seed))
	rng := newXorshift(seed)
	var names []string
	for i := 0; i < nIn; i++ {
		names = append(names, b.in(bit("x", i)))
	}
	used := make(map[string]bool)
	for g := 0; g < nGates; g++ {
		k := 1 + int(rng.next()%3)
		if k > len(names) {
			k = len(names)
		}
		var fanins []string
		seen := map[string]bool{}
		for len(fanins) < k {
			// Mild bias toward recent nodes: deep enough to be
			// interesting, shallow enough to match real control
			// logic (a window of 12 produced ISCAS-unlike depths).
			window := minInt(len(names), 64)
			idx := len(names) - 1 - int(rng.next()%uint64(window))
			f := names[idx]
			if !seen[f] {
				seen[f] = true
				fanins = append(fanins, f)
				used[f] = true
			}
		}
		var expr string
		switch rng.next() % 5 {
		case 0:
			expr = "!(" + joinOp(fanins, "*") + ")"
		case 1:
			expr = joinOp(fanins, "+")
		case 2:
			expr = joinOp(fanins, "^")
		case 3:
			expr = joinOp(fanins, "*")
		default:
			expr = "!(" + joinOp(fanins, "+") + ")"
		}
		names = append(names, b.node(fmt.Sprintf("n%d", g), expr, fanins...))
	}
	outs := 0
	for i := len(names) - 1; i >= nIn && outs < maxInt(1, nGates/8); i-- {
		if !used[names[i]] {
			b.out(names[i])
			outs++
		}
	}
	if outs == 0 {
		b.out(names[len(names)-1])
	}
	return b.done()
}

func joinOp(xs []string, op string) string {
	out := xs[0]
	for _, x := range xs[1:] {
		out += op + x
	}
	return out
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// xorshift is a tiny deterministic PRNG so generated circuits never
// depend on math/rand's version-specific stream.
type xorshift struct{ s uint64 }

func newXorshift(seed int64) *xorshift {
	x := uint64(seed)*2685821657736338717 + 1442695040888963407
	return &xorshift{s: x}
}

func (x *xorshift) next() uint64 {
	x.s ^= x.s << 13
	x.s ^= x.s >> 7
	x.s ^= x.s << 17
	return x.s
}
