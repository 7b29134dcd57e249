package bench

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"strconv"
)

// Streaming benchmark families: parameterized generators that emit
// flat BLIF text directly to a writer, without building a
// network.Network in memory. They exist for the million-gate scale
// tests — a network.Network of several million nodes costs far more
// memory than the mapped result, so the big families are produced and
// consumed as streams end to end (genbench writes them line by line,
// the streaming BLIF reader folds them straight into a subject
// graph).
//
// Two families are provided:
//
//	mult<N>        N x N ripple array multiplier (the C6288 structure
//	               scaled up; mult16 is C6288-sized, mult256 exceeds a
//	               million subject gates)
//	alumesh<WxH>   W x H mesh of 4-bit ALU tiles; each tile combines
//	               the vector arriving from the west with the vector
//	               from the north under two global opcode bits
//
// All generators are deterministic: the same family name always
// produces byte-identical BLIF.

// streamFamilyRE matches the parameterized family names understood by
// StreamFamily.
var streamFamilyRE = regexp.MustCompile(`^(mult([0-9]+)|alumesh([0-9]+)x([0-9]+))$`)

// StreamFamily resolves a parameterized family name ("mult256",
// "alumesh64x64") to its generator. It returns false for names
// outside the streaming families (fixed-size suite circuits are
// served by the network generators instead).
func StreamFamily(name string) (func(w io.Writer) error, bool) {
	m := streamFamilyRE.FindStringSubmatch(name)
	if m == nil {
		return nil, false
	}
	if m[2] != "" {
		n, err := strconv.Atoi(m[2])
		if err != nil || n < 1 || n > 4096 {
			return nil, false
		}
		return func(w io.Writer) error { return StreamMult(w, n) }, true
	}
	wd, err1 := strconv.Atoi(m[3])
	ht, err2 := strconv.Atoi(m[4])
	if err1 != nil || err2 != nil || wd < 1 || ht < 1 || wd > 1024 || ht > 1024 {
		return nil, false
	}
	return func(w io.Writer) error { return StreamALUMesh(w, wd, ht) }, true
}

// streamWriter wraps buffered BLIF emission with sticky-error
// semantics so generator bodies stay linear.
type streamWriter struct {
	w   *bufio.Writer
	err error
}

func newStreamWriter(w io.Writer) *streamWriter {
	return &streamWriter{w: bufio.NewWriterSize(w, 1<<16)}
}

func (s *streamWriter) line(parts ...string) {
	if s.err != nil {
		return
	}
	for i, p := range parts {
		if i > 0 {
			if _, s.err = s.w.WriteString(" "); s.err != nil {
				return
			}
		}
		if _, s.err = s.w.WriteString(p); s.err != nil {
			return
		}
	}
	_, s.err = s.w.WriteString("\n")
}

// names emits one .names declaration with the given cover rows.
func (s *streamWriter) names(cover []string, signals ...string) {
	s.line(append([]string{".names"}, signals...)...)
	for _, row := range cover {
		s.line(row)
	}
}

func (s *streamWriter) flush() error {
	if s.err != nil {
		return s.err
	}
	return s.w.Flush()
}

// Cover bodies for the structural cells of the streaming families.
var (
	coverAnd2 = []string{"11 1"}
	coverBuf  = []string{"1 1"}
	// Half adder: sum and carry of two bits.
	coverXor2 = []string{"10 1", "01 1"}
	// Full adder: 3-input parity and majority.
	coverSum3 = []string{"100 1", "010 1", "001 1", "111 1"}
	coverMaj3 = []string{"11- 1", "1-1 1", "-11 1"}
	coverOr2  = []string{"1- 1", "-1 1"}
	// 4-way one-hot select over inputs (op1 op0 s andv orv xorv).
	coverMux4 = []string{
		"001--- 1", // op=00 selects the adder sum
		"01-1-- 1", // op=01 selects and
		"10--1- 1", // op=10 selects or
		"11---1 1", // op=11 selects xor
	}
)

// StreamMult writes an N x N array multiplier as flat BLIF: inputs
// a0..a(N-1), b0..b(N-1), outputs p0..p(2N-1). The structure mirrors
// ArrayMultiplier (partial products accumulated row by row with
// ripple adders) but is emitted as text without a network.
func StreamMult(w io.Writer, n int) error {
	if n < 1 {
		return fmt.Errorf("bench: mult width must be positive, got %d", n)
	}
	s := newStreamWriter(w)
	s.line(".model", "mult"+strconv.Itoa(n))
	ins := []string{".inputs"}
	for i := 0; i < n; i++ {
		ins = append(ins, "a"+strconv.Itoa(i))
	}
	for j := 0; j < n; j++ {
		ins = append(ins, "b"+strconv.Itoa(j))
	}
	s.line(ins...)
	outs := []string{".outputs"}
	top := 2 * n
	if n == 1 {
		top = 1 // a 1x1 multiplier has a single product bit
	}
	for k := 0; k < top; k++ {
		outs = append(outs, "p"+strconv.Itoa(k))
	}
	s.line(outs...)

	// Partial products pp<j>_<i> = a<i> & b<j>, row by row.
	pp := func(j, i int) string { return "pp" + strconv.Itoa(j) + "_" + strconv.Itoa(i) }
	for j := 0; j < n; j++ {
		bj := "b" + strconv.Itoa(j)
		for i := 0; i < n; i++ {
			s.names(coverAnd2, "a"+strconv.Itoa(i), bj, pp(j, i))
		}
	}

	// Accumulate with ripple rows, mirroring ArrayMultiplier.addBits:
	// acc[w] holds the running signal of absolute weight w.
	acc := make([]string, 2*n)
	for i := 0; i < n; i++ {
		acc[i] = pp(0, i)
	}
	for j := 1; j < n; j++ {
		carry := ""
		for i := 0; i < n; i++ {
			wt := j + i
			name := "r" + strconv.Itoa(j) + "_" + strconv.Itoa(i)
			acc[wt], carry = s.addBits(name, acc[wt], pp(j, i), carry)
		}
		acc[j+n] = carry
	}
	for wt := 0; wt < top; wt++ {
		if acc[wt] == "" {
			continue
		}
		s.names(coverBuf, acc[wt], "p"+strconv.Itoa(wt))
	}
	s.line(".end")
	return s.flush()
}

// addBits emits a half/full adder over the non-empty operands and
// returns the sum and carry signal names (empty carry when fewer than
// two operands).
func (s *streamWriter) addBits(name, x, y, z string) (sum, carry string) {
	var in []string
	for _, v := range []string{x, y, z} {
		if v != "" {
			in = append(in, v)
		}
	}
	switch len(in) {
	case 0:
		return "", ""
	case 1:
		return in[0], ""
	case 2:
		sum, carry = name+"s", name+"c"
		s.names(coverXor2, in[0], in[1], sum)
		s.names(coverAnd2, in[0], in[1], carry)
		return sum, carry
	default:
		sum, carry = name+"s", name+"c"
		s.names(coverSum3, in[0], in[1], in[2], sum)
		s.names(coverMaj3, in[0], in[1], in[2], carry)
		return sum, carry
	}
}

// aluTileBits is the datapath width of one mesh tile.
const aluTileBits = 4

// StreamALUMesh writes a W x H mesh of 4-bit ALU tiles as flat BLIF.
// Tile (r,c) combines the 4-bit vector arriving from the west (the
// east output of tile (r,c-1), or primary inputs w<r>_* on the west
// edge) with the vector from the north (south output of (r-1,c), or
// n<c>_* on the north edge) under two global opcode bits op0/op1:
//
//	east  = mux(op, west+north, west&north, west|north, west^north)
//	south = west ^ north ^ carry-chain parity mixing
//
// Outputs are the east vectors of the last column and the south
// vectors of the last row. The mesh is shallow per tile but long in
// both axes, so its shape differs sharply from the deep multiplier
// array's.
func StreamALUMesh(w io.Writer, wd, ht int) error {
	if wd < 1 || ht < 1 {
		return fmt.Errorf("bench: alumesh dimensions must be positive, got %dx%d", wd, ht)
	}
	s := newStreamWriter(w)
	s.line(".model", "alumesh"+strconv.Itoa(wd)+"x"+strconv.Itoa(ht))
	ins := []string{".inputs", "op0", "op1"}
	for r := 0; r < ht; r++ {
		for b := 0; b < aluTileBits; b++ {
			ins = append(ins, fmt.Sprintf("w%d_%d", r, b))
		}
	}
	for c := 0; c < wd; c++ {
		for b := 0; b < aluTileBits; b++ {
			ins = append(ins, fmt.Sprintf("n%d_%d", c, b))
		}
	}
	s.line(ins...)
	outs := []string{".outputs"}
	for r := 0; r < ht; r++ {
		for b := 0; b < aluTileBits; b++ {
			outs = append(outs, fmt.Sprintf("e%d_%d", r, b))
		}
	}
	for c := 0; c < wd; c++ {
		for b := 0; b < aluTileBits; b++ {
			outs = append(outs, fmt.Sprintf("s%d_%d", c, b))
		}
	}
	s.line(outs...)

	// west[r][b] / north[c][b] hold the current frontier signals.
	west := make([][]string, ht)
	for r := 0; r < ht; r++ {
		west[r] = make([]string, aluTileBits)
		for b := 0; b < aluTileBits; b++ {
			west[r][b] = fmt.Sprintf("w%d_%d", r, b)
		}
	}
	north := make([][]string, wd)
	for c := 0; c < wd; c++ {
		north[c] = make([]string, aluTileBits)
		for b := 0; b < aluTileBits; b++ {
			north[c][b] = fmt.Sprintf("n%d_%d", c, b)
		}
	}

	for r := 0; r < ht; r++ {
		for c := 0; c < wd; c++ {
			tile := fmt.Sprintf("t%d_%d", r, c)
			east, south := s.aluTile(tile, west[r], north[c])
			west[r], north[c] = east, south
		}
	}
	for r := 0; r < ht; r++ {
		for b := 0; b < aluTileBits; b++ {
			s.names(coverBuf, west[r][b], fmt.Sprintf("e%d_%d", r, b))
		}
	}
	for c := 0; c < wd; c++ {
		for b := 0; b < aluTileBits; b++ {
			s.names(coverBuf, north[c][b], fmt.Sprintf("s%d_%d", c, b))
		}
	}
	s.line(".end")
	return s.flush()
}

// aluTile emits one 4-bit tile and returns its east and south output
// vectors.
func (s *streamWriter) aluTile(tile string, west, north []string) (east, south []string) {
	east = make([]string, aluTileBits)
	south = make([]string, aluTileBits)
	carry := ""
	for b := 0; b < aluTileBits; b++ {
		wb, nb := west[b], north[b]
		pre := tile + "_" + strconv.Itoa(b)
		sum := pre + "sum"
		if carry == "" {
			s.names(coverXor2, wb, nb, sum)
			carry = pre + "cy"
			s.names(coverAnd2, wb, nb, carry)
		} else {
			s.names(coverSum3, wb, nb, carry, sum)
			nc := pre + "cy"
			s.names(coverMaj3, wb, nb, carry, nc)
			carry = nc
		}
		andv, orv, xorv := pre+"and", pre+"or", pre+"xor"
		s.names(coverAnd2, wb, nb, andv)
		s.names(coverOr2, wb, nb, orv)
		s.names(coverXor2, wb, nb, xorv)
		east[b] = pre + "e"
		s.names(coverMux4, "op1", "op0", sum, andv, orv, xorv, east[b])
		south[b] = pre + "s"
		s.names(coverXor2, xorv, carry, south[b])
	}
	return east, south
}
