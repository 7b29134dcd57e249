package blif

import (
	"bytes"
	"fmt"
	"io"
	"unicode"
	"unicode/utf8"
)

// maxLogicalLine bounds one physical line and one logical line (after
// continuation joining). Continuations concatenate physical lines into
// one buffer; without a bound, adversarial input ending every line in
// '\' makes the reader buffer the entire file.
const maxLogicalLine = 1 << 24

// lineScanner produces logical lines one at a time, straight from the
// input bytes: comments are stripped, '\' continuations are joined
// into a bounded buffer, and a continuation that runs into end of file
// is a position-accurate error instead of a silently accepted line.
// Lines end at '\n', with one trailing '\r' dropped.
type lineScanner struct {
	r        io.Reader
	buf      []byte // buf[pos:end] is read but not yet consumed
	pos, end int
	scanned  int   // buf[pos:pos+scanned] holds no '\n'
	eof      bool  // r is exhausted (or failed, see rerr)
	rerr     error // read error, reported once buffered lines are out
	num      int   // physical line number of the last line read
	joined   []byte
	err      error
}

func newLineScanner(r io.Reader) *lineScanner {
	return &lineScanner{r: r, buf: make([]byte, 1<<16)}
}

// next returns the next logical line and the physical line number it
// starts on. The text is valid until the following call. ok is false
// at end of input or on error; check Err afterwards.
func (ls *lineScanner) next() (text []byte, num int, ok bool) {
	if ls.err != nil {
		return nil, 0, false
	}
	ls.joined = ls.joined[:0]
	pending := false // inside a continuation run
	for {
		txt, more := ls.physical()
		if !more {
			break
		}
		if idx := bytes.IndexByte(txt, '#'); idx >= 0 {
			txt = txt[:idx]
		}
		cont := len(txt) > 0 && txt[len(txt)-1] == '\\'
		if cont {
			txt = txt[:len(txt)-1]
		}
		if !pending {
			num = ls.num
		}
		if len(ls.joined)+len(txt) > maxLogicalLine {
			ls.err = fmt.Errorf("blif: line %d: logical line exceeds %d bytes", num, maxLogicalLine)
			return nil, 0, false
		}
		if !pending && !cont {
			return txt, num, true // one physical line: no copy
		}
		ls.joined = append(ls.joined, txt...)
		if cont {
			ls.joined = append(ls.joined, ' ')
			pending = true
			continue
		}
		return ls.joined, num, true
	}
	switch {
	case ls.err != nil:
		if !pending {
			num = ls.num + 1
		}
		ls.err = fmt.Errorf("blif: line %d: %v", num, ls.err)
	case ls.rerr != nil:
		ls.err = fmt.Errorf("blif: %v", ls.rerr)
	case pending:
		ls.err = fmt.Errorf("blif: line %d: line continuation ('\\') at end of file", ls.num)
	}
	return nil, 0, false
}

// physical returns the next physical line without its terminator. At
// end of input, or when a line outgrows maxLogicalLine (ls.err then
// holds the bare cause for next to position), more is false.
func (ls *lineScanner) physical() (txt []byte, more bool) {
	for {
		if i := bytes.IndexByte(ls.buf[ls.pos+ls.scanned:ls.end], '\n'); i >= 0 {
			txt = ls.buf[ls.pos : ls.pos+ls.scanned+i]
			ls.pos += ls.scanned + i + 1
			ls.scanned = 0
			break
		}
		ls.scanned = ls.end - ls.pos
		if ls.scanned > maxLogicalLine+1 { // room for a dropped '\r'
			ls.err = fmt.Errorf("logical line exceeds %d bytes", maxLogicalLine)
			return nil, false
		}
		if ls.eof {
			if ls.pos == ls.end {
				return nil, false
			}
			txt = ls.buf[ls.pos:ls.end]
			ls.pos, ls.scanned = ls.end, 0
			break
		}
		ls.fill()
	}
	ls.num++
	if n := len(txt); n > 0 && txt[n-1] == '\r' {
		txt = txt[:n-1]
	}
	if len(txt) > maxLogicalLine {
		ls.err = fmt.Errorf("logical line exceeds %d bytes", maxLogicalLine)
		ls.num--
		return nil, false
	}
	return txt, true
}

// fill reads more input behind the unconsumed bytes, moving them to
// the front of the buffer or doubling it when it is full.
func (ls *lineScanner) fill() {
	if ls.pos > 0 {
		ls.end = copy(ls.buf, ls.buf[ls.pos:ls.end])
		ls.pos = 0
	}
	if ls.end == len(ls.buf) {
		grown := make([]byte, 2*len(ls.buf))
		copy(grown, ls.buf[:ls.end])
		ls.buf = grown
	}
	for empty := 0; empty < 100; empty++ {
		n, err := ls.r.Read(ls.buf[ls.end:])
		ls.end += n
		if err != nil {
			ls.eof = true
			if err != io.EOF {
				ls.rerr = err
			}
			return
		}
		if n > 0 {
			return
		}
	}
	ls.eof, ls.rerr = true, io.ErrNoProgress
}

// Err returns the first scan error, if any.
func (ls *lineScanner) Err() error { return ls.err }

// asciiSpace marks the bytes strings.Fields treats as separators in
// ASCII text.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// isSpaceAt reports whether s[i:] starts with white space, as
// strings.Fields defines it, and the width of the rune there.
func isSpaceAt(s []byte, i int) (space bool, width int) {
	r, w := utf8.DecodeRune(s[i:])
	return unicode.IsSpace(r), w
}

// nextField returns the bounds of the first field of s at or after i;
// start == len(s) when there is none. Fields split exactly where
// strings.Fields splits, so both readers tokenize alike.
func nextField(s []byte, i int) (start, end int) {
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if !asciiSpace[c] {
				break
			}
			i++
		} else if sp, w := isSpaceAt(s, i); sp {
			i += w
		} else {
			break
		}
	}
	start = i
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if asciiSpace[c] {
				break
			}
			i++
		} else if sp, w := isSpaceAt(s, i); !sp {
			i += w
		} else {
			break
		}
	}
	return start, i
}

// appendFields appends the fields of s to dst, as views into s.
func appendFields(dst [][]byte, s []byte) [][]byte {
	for i := 0; ; {
		start, end := nextField(s, i)
		if start == end {
			return dst
		}
		dst = append(dst, s[start:end])
		i = end
	}
}

// cover validates the rows of one .names declaration as they arrive
// and keeps their input columns; it is the one cover-row parser of
// both readers. A cover over no inputs is a constant: it is 1 when a
// row reads "1", and its rows are not checked further.
type cover struct {
	width int
	rows  int
	on    bool   // output phase of the rows (true when there are none)
	one   bool   // a zero-input cover holds a "1" row
	cols  []byte // the input columns of every row, width bytes per row
	err   error  // the first invalid row; later rows are not examined
}

func (c *cover) reset(width int) {
	*c = cover{width: width, on: true, cols: c.cols[:0]}
}

// add validates one cover row.
func (c *cover) add(row []byte) {
	if c.err != nil {
		return
	}
	ri := c.rows
	c.rows++
	row = bytes.TrimSpace(row)
	if c.width == 0 {
		c.one = c.one || string(row) == "1"
		return
	}
	s0, e0 := nextField(row, 0)
	s1, e1 := nextField(row, e0)
	s2, _ := nextField(row, e1)
	switch {
	case s0 == len(row) || s2 < len(row):
		c.err = fmt.Errorf("cover row %d (%q) malformed", ri, string(row))
		return
	case s1 == len(row):
		c.err = fmt.Errorf("cover row %d (%q) missing output column", ri, string(row))
		return
	}
	in := row[s0:e0]
	if len(in) != c.width {
		c.err = fmt.Errorf("cover row %d has %d input columns, want %d", ri, len(in), c.width)
		return
	}
	phase := string(row[s1:e1]) == "1"
	if ri == 0 {
		c.on = phase
	} else if phase != c.on {
		c.err = fmt.Errorf("cover mixes output phases")
		return
	}
	for i, ch := range in {
		if ch != '0' && ch != '1' && ch != '-' {
			r, _ := utf8.DecodeRune(in[i:])
			c.err = fmt.Errorf("cover row %d has invalid column %q", ri, string(r))
			return
		}
	}
	c.cols = append(c.cols, in...)
}

// row returns the input columns of cover row r.
func (c *cover) row(r int) []byte { return c.cols[r*c.width : (r+1)*c.width] }
