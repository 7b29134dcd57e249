package dagcover

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"dagcover/internal/bench"
	"dagcover/internal/obs/obstest"
)

// TestTraceExportValidChromeTrace drives the -trace pipeline the CLIs
// use — NewTrace through Map in dag, tree and lut modes, exported with
// WriteChromeTrace — and validates the JSON against the trace_event
// schema (what chrome://tracing and Perfetto accept).
func TestTraceExportValidChromeTrace(t *testing.T) {
	nw := bench.RippleAdder(16)
	cl := compile(t, Lib443())
	tr := NewTrace()
	mapNet(t, nw, MapOptions{Library: cl, Delay: UnitDelay, Trace: tr})
	mapNet(t, nw, MapOptions{Mode: ModeTree, Library: cl, Delay: UnitDelay, Trace: tr})
	mapNet(t, nw, MapOptions{Mode: ModeLUT, K: 4, Trace: tr})
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obstest.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("exported trace is not valid trace_event JSON: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, span := range []string{"core.label", "core.cover", "core.emit", "treemap.dp", "flowmap.label"} {
		if !strings.Contains(out, `"name":"`+span+`"`) {
			t.Errorf("trace missing span %q", span)
		}
	}
}

// TestMapReportTextAndJSONAgree pins the shared-report contract: the
// -v text rendering and the -stats-json rendering come from one
// MapReport, so every figure in the text must round-trip through the
// JSON unchanged.
func TestMapReportTextAndJSONAgree(t *testing.T) {
	nw := bench.RippleAdder(16)
	res := mapNet(t, nw, MapOptions{Library: compile(t, Lib443()), Delay: UnitDelay})
	report := NewMapReport(nw.Name, "dag", "unit", Lib443(), res)
	report.SetVerified(true)

	var jsonBuf bytes.Buffer
	if err := report.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var decoded MapReport
	if err := json.Unmarshal(jsonBuf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Cells != res.Cells || decoded.Delay != res.Delay ||
		decoded.PatternsTried != res.PatternsTried ||
		decoded.DuplicatedNodes != res.DuplicatedNodes {
		t.Errorf("JSON report diverges from the result: %+v vs %+v", decoded, res)
	}
	if decoded.Phases != res.Phases {
		t.Errorf("JSON phases %+v != result phases %+v", decoded.Phases, res.Phases)
	}
	if decoded.Verified == nil || !*decoded.Verified {
		t.Error("verified flag lost in JSON round-trip")
	}

	var textBuf bytes.Buffer
	report.WriteText(&textBuf, true)
	text := textBuf.String()
	for _, want := range []string{
		fmt.Sprintf("cells:         %d", res.Cells),
		fmt.Sprintf("delay:         %.3f", res.Delay),
		fmt.Sprintf("patterns tried:     %d", res.PatternsTried),
		"verification:  equivalent",
		"phases:",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text report missing %q:\n%s", want, text)
		}
	}
	if res.Phases.LabelMillis <= 0 || res.Phases.TotalMillis <= 0 {
		t.Errorf("phase breakdown not filled: %+v", res.Phases)
	}
}

// TestTreePhaseBreakdown checks tree covering reports its DP/emission
// split through the same PhaseBreakdown shape.
func TestTreePhaseBreakdown(t *testing.T) {
	res := mapNet(t, bench.RippleAdder(16), MapOptions{Mode: ModeTree, Library: compile(t, Lib2())})
	if res.Phases.CoverMillis <= 0 || res.Phases.TotalMillis <= 0 {
		t.Errorf("tree phases not filled: %+v", res.Phases)
	}
	if res.Phases.LabelMillis != 0 {
		t.Errorf("tree covering has no labeling pass, got label %v ms", res.Phases.LabelMillis)
	}
}
