package obstest

import "testing"

func TestValidateRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":       `{`,
		"no traceEvents": `{}`,
		"bad phase":      `{"traceEvents":[{"name":"x","ph":"Z","ts":0}]}`,
		"missing name":   `{"traceEvents":[{"ph":"X","ts":0,"dur":1}]}`,
		"negative ts":    `{"traceEvents":[{"name":"x","ph":"i","ts":-5}]}`,
		"missing dur":    `{"traceEvents":[{"name":"x","ph":"X","ts":0}]}`,
	}
	for name, in := range cases {
		if err := ValidateChromeTrace([]byte(in)); err == nil {
			t.Errorf("%s: validator accepted %s", name, in)
		}
	}
}

func TestValidateExpositionAccepts(t *testing.T) {
	good := `# HELP mapd_up Whether the server is up.
# TYPE mapd_up gauge
mapd_up 1
# HELP mapd_requests_total Requests by result.
# TYPE mapd_requests_total counter
mapd_requests_total{result="ok"} 12
mapd_requests_total{result="bad\"quote"} 0
# HELP mapd_latency_seconds Latency.
# TYPE mapd_latency_seconds histogram
mapd_latency_seconds_bucket{le="0.1"} 3
mapd_latency_seconds_bucket{le="+Inf"} 4
mapd_latency_seconds_sum 0.5
mapd_latency_seconds_count 4
`
	if err := ValidateExposition([]byte(good)); err != nil {
		t.Errorf("valid exposition rejected: %v", err)
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"sample without HELP/TYPE": "mapd_up 1\n",
		"TYPE after sample": `# HELP m h
m 1
# TYPE m gauge
`,
		"unknown type": `# HELP m h
# TYPE m widget
m 1
`,
		"bad value": `# HELP m h
# TYPE m gauge
m fast
`,
		"unquoted label": `# HELP m h
# TYPE m gauge
m{x=1} 1
`,
		"unterminated labels": `# HELP m h
# TYPE m gauge
m{x="1" 1
`,
		"help without text": `# HELP m
# TYPE m gauge
m 1
`,
		"duplicate TYPE": `# HELP m h
# TYPE m gauge
# TYPE m gauge
m 1
`,
		"bad metric name": `# HELP 1m h
# TYPE 1m gauge
1m 1
`,
	}
	for name, text := range cases {
		if err := ValidateExposition([]byte(text)); err == nil {
			t.Errorf("%s: accepted invalid exposition", name)
		}
	}
}
