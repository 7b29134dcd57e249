package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// endToEnd computes the metrics a user of the system sees, from the
// untraced pass.
func endToEnd(p *pass, setupS []float64, rssMB float64) []metric {
	var lat, delays, areas []float64
	seen := map[string]bool{}
	for _, op := range p.ops {
		lat = append(lat, op.ms)
		if op.failed || op.key == "" || seen[op.key] {
			continue
		}
		seen[op.key] = true
		delays = append(delays, op.delay)
		areas = append(areas, op.area)
	}
	n := len(p.ops)
	failed := countFailed(p)
	tailV, tailPct := tail(lat)
	return []metric{
		{"setup_s", median(setupS), "s", fmt.Sprintf("median of %d set-ups: %s", len(setupS), fmtList(setupS, "%.3f"))},
		{"ops_per_s", float64(n-failed) / p.wall.Seconds(), "1/s", fmt.Sprintf("%d completed in %.2f s", n-failed, p.wall.Seconds())},
		{"latency_p50_ms", median(lat), "ms", fmt.Sprintf("n=%d", n)},
		{"latency_tail_ms", tailV, "ms", fmt.Sprintf("p%.2f, n=%d, %d beyond", tailPct, n, min(tailBeyond, n-1))},
		{"peak_rss_mb", rssMB, "MB", "VmHWM"},
		{"error_rate", float64(failed) / float64(n), "ratio", fmt.Sprintf("%d of %d failed", failed, n)},
		{"mapped_delay_geomean", geomean(delays), "delay", fmt.Sprintf("%d distinct outputs", len(delays))},
		{"mapped_area_geomean", geomean(areas), "area", fmt.Sprintf("%d distinct outputs", len(areas))},
	}
}

// perLayer computes the per-layer metrics. Layer times come from the
// traced pass's spans, engine phases and counters from what the calls
// returned, and runtime figures from the untraced pass. Each time is a
// mean per call into that layer, so a layer a workload does not call
// reads 0.
func perLayer(plain, tp *pass, tr *tracer) []metric {
	total, self := tr.layerTimes()
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	s := tp.sums
	per := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	ops := float64(len(tp.ops))
	engine := s["engine.ops"]
	streamMS := ms(total["blif.stream"])
	renderMS := ms(total["mapping.render"])
	mapMS := ms(total["core.map"])
	phases := s["core.label"] + s["core.area"] + s["core.cover"] + s["core.emit"]
	opMS := ms(total["op"])
	overhead := 100 * (tp.wall.Seconds() - plain.wall.Seconds()) / plain.wall.Seconds()

	out := []metric{
		{"blif.stream_ms", per(streamMS, s["blif.calls"]), "ms", ""},
		{"blif.stream_mb_per_s", per(s["blif.bytes"]/1e6, streamMS/1e3), "MB/s", ""},
		{"subject.nodes_per_op", per(s["subject.nodes"], engine), "count", ""},
		{"library.compile_ms", per(s["library.compile_ms"], s["library.compiles"]), "ms", ""},
		{"match.patterns_per_node", per(s["match.patterns"], s["subject.nodes"]), "count", ""},
		{"match.memo_hit_rate", per(s["match.memo_hits"], s["match.memo_hits"]+s["match.memo_misses"]), "ratio",
			fmt.Sprintf("base %.0f lookups", s["match.memo_hits"]+s["match.memo_misses"])},
		{"match.memo_entries", s["match.memo_entries"], "count", ""},
		{"core.map_ms", per(mapMS, s["core.calls"]), "ms", ""},
		{"core.label_ms", per(s["core.label"], s["core.calls"]), "ms", ""},
		{"core.area_ms", per(s["core.area"], s["core.calls"]), "ms", ""},
		{"core.cover_ms", per(s["core.cover"], s["core.calls"]), "ms", ""},
		{"core.emit_ms", per(s["core.emit"], s["core.calls"]), "ms", ""},
		{"core.other_ms", per(mapMS-phases, s["core.calls"]), "ms", "map call minus its reported phases"},
	}
	for _, lib := range libraryNames {
		out = append(out, metric{"core.label_ms." + lib, per(s["core.label."+lib], s["core.calls."+lib]), "ms", ""})
	}
	out = append(out,
		metric{"mapping.render_ms", per(renderMS, s["mapping.calls"]), "ms", ""},
		metric{"mapping.render_mb_per_s", per(s["mapping.bytes"]/1e6, renderMS/1e3), "MB/s", ""},
	)
	for _, class := range serveClasses {
		out = append(out, metric{"service." + class + ".latency_p50_ms", classMedian(tp, class), "ms", ""})
	}
	hits, misses := s["service.hits"], s["service.misses"]
	out = append(out,
		metric{"service.hit_rate", per(hits, hits+misses), "ratio", fmt.Sprintf("base %.0f cacheable requests", hits+misses)},
		metric{"service.hit_rate_base", hits + misses, "count", ""},
		metric{"service.coalesced", s["service.coalesced"], "count", ""},
		metric{"service.shed", s["service.shed"], "count", ""},
		metric{"service.queue_wait_ms", per(s["service.queue_wait_ms"], s["service.ok"]), "ms", "client latency minus elapsed_ms"},
	)
	for _, ph := range servicePhases {
		out = append(out, metric{"service.phase." + ph + "_ms", per(s["service.phase."+ph], ops), "ms", "per op"})
	}
	out = append(out,
		metric{"service.handle_ms", per(ms(total["service.handle"]), s["service.calls"]), "ms", "handler wall per request"},
		metric{"service.transport_ms", per(ms(self["http.post"]), s["service.calls"]), "ms", "round trip minus handler"},
		metric{"client.codec_ms", per(ms(total["client.encode"]+total["client.decode"]), s["service.calls"]), "ms", "request encode + response decode"},
		metric{"runtime.alloc_mb_per_op", float64(plain.rt.allocBytes) / 1e6 / float64(len(plain.ops)), "MB", ""},
		metric{"runtime.gc_cycles_per_op", float64(plain.rt.gcCycles) / float64(len(plain.ops)), "count", ""},
		metric{"runtime.gc_pause_ms", ms(plain.rt.gcPause) / float64(len(plain.ops)), "ms", "stop-the-world GC pause per op"},
		metric{"op.other_ms", per(ms(self["op"]), ops), "ms", "op wall not inside a named layer"},
		metric{"trace.coverage_pct", per(100*(opMS-ms(self["op"])), opMS), "%", "share of op wall inside named layers"},
		metric{"trace.overhead_pct", overhead, "%", fmt.Sprintf("traced %.3f s vs untraced %.3f s", tp.wall.Seconds(), plain.wall.Seconds())},
	)
	return out
}

// libraryNames are the paper's three libraries, in table order.
var libraryNames = []string{"lib2", "44-1", "44-3"}

// classMedian is the median latency of one operation class.
func classMedian(p *pass, class string) float64 {
	var xs []float64
	for _, op := range p.ops {
		if op.class == class {
			xs = append(xs, op.ms)
		}
	}
	return median(xs)
}

// runtimeDelta is what the Go runtime did during one pass.
type runtimeDelta struct {
	allocBytes uint64
	gcCycles   uint64
	gcPause    time.Duration
}

var runtimeSamples = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	// runtime/metrics exposes pauses only as a histogram; MemStats has
	// the exact total.
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return runtimeDelta{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcPause:    time.Duration(mem.PauseTotalNs),
	}
}

func (r runtimeDelta) sub(before runtimeDelta) runtimeDelta {
	return runtimeDelta{r.allocBytes - before.allocBytes, r.gcCycles - before.gcCycles, r.gcPause - before.gcPause}
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// hostSteal reads the machine's cumulative CPU steal time from
// /proc/stat (0 where it is unavailable). It assumes the usual 100
// clock ticks per second.
func hostSteal() time.Duration {
	doc, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(doc), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

func fmtList(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		if math.IsInf(x, 1) {
			parts[i] = "inf"
			continue
		}
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}
