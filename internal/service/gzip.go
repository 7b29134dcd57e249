package service

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// Wire-level transport concerns, applied to every endpoint by
// Server.Handler:
//
//   - Request bodies are bounded to Config.MaxRequestBytes everywhere
//     (an oversized POST gets 413 instead of ballooning memory until
//     the JSON or BLIF parser happens to choke).
//   - A request with Content-Encoding: gzip is transparently
//     decompressed, with the *decompressed* size held to the same
//     bound — a tiny gzip bomb cannot expand past MaxRequestBytes.
//   - A client that sends Accept-Encoding: gzip gets a gzip response;
//     the wrapper forwards Flush, so streamed NDJSON job results stay
//     incremental (each record is a flushed gzip frame).

// errDecompressedTooLarge marks a gzip request body that inflated past
// the request-size bound; handlers classify it as 413 alongside
// http.MaxBytesError.
var errDecompressedTooLarge = errors.New("service: decompressed request body exceeds the size limit")

// isBodyTooLarge reports whether a body-read error (usually surfacing
// through json.Decoder) means the request body was over the limit,
// before or after decompression.
func isBodyTooLarge(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe) || errors.Is(err, errDecompressedTooLarge)
}

// transport wraps the mux with body bounding and gzip negotiation.
func (s *Server) transport(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if acceptsGzip(r.Header.Get("Accept-Encoding")) {
			w.Header().Add("Vary", "Accept-Encoding")
			gw := newGzipResponseWriter(w)
			defer gw.Close()
			w = gw
		}
		if r.Body != nil && r.Body != http.NoBody {
			if strings.EqualFold(strings.TrimSpace(r.Header.Get("Content-Encoding")), "gzip") {
				// The raw (compressed) side shares the bound: a valid
				// gzip stream larger than the limit cannot inflate to
				// something within it.
				raw := http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes)
				r.Body = &gzipBody{raw: raw, limit: s.cfg.MaxRequestBytes}
				r.Header.Del("Content-Encoding")
				r.ContentLength = -1
			} else {
				r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes)
			}
		}
		h.ServeHTTP(w, r)
	})
}

// acceptsGzip parses an Accept-Encoding header just far enough to know
// whether gzip is acceptable: a gzip token whose q-value, if any, is
// not zero (RFC 9110 §12.4.2: "0", "0.0" ... "0.000" all mean "not
// acceptable"; the parameter name is case-insensitive).
func acceptsGzip(header string) bool {
	for _, part := range strings.Split(header, ",") {
		token, params, _ := strings.Cut(part, ";")
		if !strings.EqualFold(strings.TrimSpace(token), "gzip") {
			continue
		}
		for _, param := range strings.Split(params, ";") {
			name, val, _ := strings.Cut(param, "=")
			if strings.EqualFold(strings.TrimSpace(name), "q") {
				q, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
				return err != nil || q > 0
			}
		}
		return true
	}
	return false
}

// gzipBody lazily decompresses a gzip request body, counting inflated
// bytes against limit. The gzip reader is created on first Read so a
// handler that rejects the request before reading (wrong method, bad
// path) never touches the stream.
type gzipBody struct {
	raw   io.ReadCloser
	zr    *gzip.Reader
	limit int64
	n     int64
	err   error
}

func (b *gzipBody) Read(p []byte) (int, error) {
	if b.err != nil {
		return 0, b.err
	}
	if b.zr == nil {
		zr, err := gzip.NewReader(b.raw)
		if err != nil {
			if isBodyTooLarge(err) {
				b.err = err
			} else {
				b.err = fmt.Errorf("malformed gzip request body: %w", err)
			}
			return 0, b.err
		}
		b.zr = zr
	}
	n, err := b.zr.Read(p)
	b.n += int64(n)
	if b.n > b.limit {
		b.err = errDecompressedTooLarge
		return n, b.err
	}
	return n, err
}

func (b *gzipBody) Close() error {
	if b.zr != nil {
		_ = b.zr.Close()
	}
	return b.raw.Close()
}

// gzipWriterPool recycles compressors across responses; Reset rebinds
// one to the next connection.
var gzipWriterPool = sync.Pool{
	New: func() any { return gzip.NewWriter(io.Discard) },
}

// gzipResponseWriter compresses the response body. The Content-Encoding
// header is set when the header section is flushed (first Write or
// explicit WriteHeader), and Flush produces a complete gzip frame so
// NDJSON streaming clients see each record as soon as it is written.
type gzipResponseWriter struct {
	http.ResponseWriter
	gz          *gzip.Writer
	wroteHeader bool
}

func newGzipResponseWriter(w http.ResponseWriter) *gzipResponseWriter {
	gz := gzipWriterPool.Get().(*gzip.Writer)
	gz.Reset(w)
	return &gzipResponseWriter{ResponseWriter: w, gz: gz}
}

func (g *gzipResponseWriter) WriteHeader(code int) {
	if !g.wroteHeader {
		g.Header().Set("Content-Encoding", "gzip")
		g.Header().Del("Content-Length")
		g.wroteHeader = true
	}
	g.ResponseWriter.WriteHeader(code)
}

func (g *gzipResponseWriter) Write(p []byte) (int, error) {
	if !g.wroteHeader {
		g.WriteHeader(http.StatusOK)
	}
	return g.gz.Write(p)
}

// Flush completes the current gzip frame and pushes it to the client.
func (g *gzipResponseWriter) Flush() {
	if !g.wroteHeader {
		return
	}
	_ = g.gz.Flush()
	if f, ok := g.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Close finishes the gzip stream and returns the compressor to the
// pool. A response that never wrote anything stays empty (no stray
// gzip trailer without a matching Content-Encoding header).
func (g *gzipResponseWriter) Close() {
	if g.wroteHeader {
		_ = g.gz.Close()
	}
	g.gz.Reset(io.Discard)
	gzipWriterPool.Put(g.gz)
}
