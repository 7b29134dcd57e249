// Package obstest holds the format validators that tests of the obs
// exporters and the /metrics writer share: Chrome trace_event JSON and
// Prometheus text exposition. Only test files import it.
package obstest

import (
	"encoding/json"
	"fmt"
)

// ValidateChromeTrace checks data against the trace_event JSON schema
// subset this package emits — the contract the CLI -trace files and
// their tests rely on: a traceEvents array whose entries carry a
// name, a known phase, a numeric non-negative timestamp, and (for
// complete events) a non-negative duration. Perfetto rejects little,
// but a file passing this check is well-formed for it.
func ValidateChromeTrace(data []byte) error {
	var raw struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("obs: trace is not valid JSON: %w", err)
	}
	if raw.TraceEvents == nil {
		return fmt.Errorf("obs: trace has no traceEvents array")
	}
	for i, e := range raw.TraceEvents {
		var ph string
		if err := unmarshalField(e, "ph", &ph); err != nil {
			return fmt.Errorf("obs: event %d: %v", i, err)
		}
		switch ph {
		case "X", "i", "M", "B", "E", "C":
		default:
			return fmt.Errorf("obs: event %d: unknown phase %q", i, ph)
		}
		var name string
		if err := unmarshalField(e, "name", &name); err != nil {
			return fmt.Errorf("obs: event %d: %v", i, err)
		}
		if name == "" {
			return fmt.Errorf("obs: event %d: empty name", i)
		}
		if ph == "M" {
			continue // metadata events need no timestamp
		}
		var ts float64
		if err := unmarshalField(e, "ts", &ts); err != nil {
			return fmt.Errorf("obs: event %d (%s): %v", i, name, err)
		}
		if ts < 0 {
			return fmt.Errorf("obs: event %d (%s): negative ts %v", i, name, ts)
		}
		if ph == "X" {
			var dur float64
			if err := unmarshalField(e, "dur", &dur); err != nil {
				return fmt.Errorf("obs: event %d (%s): %v", i, name, err)
			}
			if dur < 0 {
				return fmt.Errorf("obs: event %d (%s): negative dur %v", i, name, dur)
			}
		}
	}
	return nil
}

func unmarshalField(e map[string]json.RawMessage, key string, dst any) error {
	v, ok := e[key]
	if !ok {
		return fmt.Errorf("missing %q field", key)
	}
	if err := json.Unmarshal(v, dst); err != nil {
		return fmt.Errorf("bad %q field: %v", key, err)
	}
	return nil
}
