package subject

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// digestFormat versions the canonical encoding below. Bumping it
// rotates every digest (and with them every content-addressed result
// key derived from one), which is how digest-semantics changes
// invalidate downstream caches: old entries are orphaned, never
// misread.
const digestFormat = "subjv1"

// Digest returns the canonical content digest of the graph: a sha256
// (hex) over the node arrays in topological order plus the PI and
// output bindings. Two graphs digest equal iff a mapper would emit
// byte-identical netlists for them: structure alone is not enough,
// because PI and output names survive into the emitted BLIF, so the
// encoding covers them too.
//
// The hash streams straight off the struct-of-arrays representation
// through a fixed stack buffer — one pass, no per-node allocation —
// and is cached on the graph until nodes or outputs are added. Digest
// is safe to call from several goroutines at once on a graph that is
// no longer being built.
func (g *Graph) Digest() string {
	if d := g.digest.Load(); d != nil && d.nodes == len(g.kind) && d.outs == len(g.Outputs) {
		return d.sum
	}
	h := sha256.New()

	// Fixed chunk buffer: 9 bytes per node (kind + two fanins), flushed
	// whenever another record would overflow.
	var buf [9 * 452]byte
	n := 0
	flush := func() {
		if n > 0 {
			h.Write(buf[:n])
			n = 0
		}
	}
	putU32 := func(v uint32) {
		if n+4 > len(buf) {
			flush()
		}
		binary.LittleEndian.PutUint32(buf[n:], v)
		n += 4
	}
	putStr := func(s string) {
		putU32(uint32(len(s)))
		flush()
		h.Write([]byte(s))
	}

	putStr(digestFormat)
	putStr(g.Name)

	putU32(uint32(len(g.kind)))
	for i := range g.kind {
		if n+9 > len(buf) {
			flush()
		}
		buf[n] = byte(g.kind[i] & 3)
		binary.LittleEndian.PutUint32(buf[n+1:], uint32(g.fanin0[i]))
		binary.LittleEndian.PutUint32(buf[n+5:], uint32(g.fanin1[i]))
		n += 9
	}

	putU32(uint32(len(g.PIs)))
	for _, pi := range g.PIs {
		putU32(uint32(pi))
		putStr(g.piName[pi])
	}

	putU32(uint32(len(g.Outputs)))
	for _, o := range g.Outputs {
		putU32(uint32(o.Node))
		putStr(o.Name)
	}
	flush()

	var sum [sha256.Size]byte
	d := &digestSnapshot{sum: hex.EncodeToString(h.Sum(sum[:0])), nodes: len(g.kind), outs: len(g.Outputs)}
	g.digest.Store(d)
	return d.sum
}

// digestSnapshot is one computed digest and the node and output counts
// of the graph it covers.
type digestSnapshot struct {
	sum   string
	nodes int
	outs  int
}
