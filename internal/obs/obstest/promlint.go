package obstest

import (
	"fmt"
	"strconv"
	"strings"
)

// ValidateExposition lints Prometheus text exposition (format 0.0.4)
// the way the CI gate needs: every sample must belong to a family
// that declared # HELP and # TYPE before its first sample, metric and
// label names must be legal, label values must be correctly quoted
// and escaped, and every value must parse as a float (+Inf/-Inf/NaN
// included). Histogram samples (_bucket/_sum/_count) resolve to their
// base family. It is a structural contract check for the hand-rolled
// /metrics writer, not a full Prometheus parser.
func ValidateExposition(data []byte) error {
	type family struct {
		help, typ bool
		typName   string
	}
	fams := make(map[string]*family)
	get := func(name string) *family {
		f := fams[name]
		if f == nil {
			f = &family{}
			fams[name] = f
		}
		return f
	}
	// baseFamily strips a histogram/summary sample suffix when the
	// stripped name was declared with a matching type.
	baseFamily := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suf) {
				base := strings.TrimSuffix(name, suf)
				if f, ok := fams[base]; ok && (f.typName == "histogram" || f.typName == "summary") {
					return base
				}
			}
		}
		return name
	}

	lines := strings.Split(string(data), "\n")
	for ln, line := range lines {
		lineno := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 2 {
				continue // bare comment
			}
			switch fields[1] {
			case "HELP":
				if len(fields) < 3 {
					return fmt.Errorf("line %d: HELP without a metric name", lineno)
				}
				name := fields[2]
				if !validMetricName(name) {
					return fmt.Errorf("line %d: HELP for invalid metric name %q", lineno, name)
				}
				f := get(name)
				if f.help {
					return fmt.Errorf("line %d: duplicate HELP for %q", lineno, name)
				}
				if len(fields) < 4 || strings.TrimSpace(fields[3]) == "" {
					return fmt.Errorf("line %d: HELP for %q has no text", lineno, name)
				}
				f.help = true
			case "TYPE":
				if len(fields) < 4 {
					return fmt.Errorf("line %d: TYPE needs a metric name and a type", lineno)
				}
				name, typ := fields[2], strings.TrimSpace(fields[3])
				if !validMetricName(name) {
					return fmt.Errorf("line %d: TYPE for invalid metric name %q", lineno, name)
				}
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("line %d: unknown type %q for %q", lineno, typ, name)
				}
				f := get(name)
				if f.typ {
					return fmt.Errorf("line %d: duplicate TYPE for %q", lineno, name)
				}
				f.typ = true
				f.typName = typ
			}
			continue
		}

		name, rest, err := splitSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %v", lineno, err)
		}
		if !validMetricName(name) {
			return fmt.Errorf("line %d: invalid metric name %q", lineno, name)
		}
		fam := baseFamily(name)
		f, ok := fams[fam]
		if !ok || !f.help || !f.typ {
			return fmt.Errorf("line %d: sample for %q (family %q) before its HELP and TYPE lines", lineno, name, fam)
		}
		val := strings.Fields(rest)
		if len(val) < 1 || len(val) > 2 {
			return fmt.Errorf("line %d: want `value [timestamp]` after %q, got %q", lineno, name, rest)
		}
		if _, err := strconv.ParseFloat(val[0], 64); err != nil {
			return fmt.Errorf("line %d: value %q is not a float: %v", lineno, val[0], err)
		}
		if len(val) == 2 {
			if _, err := strconv.ParseInt(val[1], 10, 64); err != nil {
				return fmt.Errorf("line %d: timestamp %q is not an integer", lineno, val[1])
			}
		}
	}
	return nil
}

// splitSample splits "name{labels} value" into the metric name and
// the remainder after the (validated) label block.
func splitSample(line string) (name, rest string, err error) {
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' {
		i++
	}
	name = line[:i]
	if name == "" {
		return "", "", fmt.Errorf("empty metric name")
	}
	if i < len(line) && line[i] == '{' {
		j, err := scanLabels(line, i)
		if err != nil {
			return "", "", err
		}
		i = j
	}
	if i >= len(line) || line[i] != ' ' {
		return "", "", fmt.Errorf("no value after metric %q", name)
	}
	return name, strings.TrimSpace(line[i:]), nil
}

// scanLabels validates the {name="value",...} block starting at
// line[open] == '{' and returns the index just past '}'.
func scanLabels(line string, open int) (int, error) {
	i := open + 1
	for {
		if i >= len(line) {
			return 0, fmt.Errorf("unterminated label block")
		}
		if line[i] == '}' {
			return i + 1, nil
		}
		// label name
		start := i
		for i < len(line) && line[i] != '=' {
			i++
		}
		lname := line[start:i]
		if !validLabelName(lname) {
			return 0, fmt.Errorf("invalid label name %q", lname)
		}
		i++ // '='
		if i >= len(line) || line[i] != '"' {
			return 0, fmt.Errorf("label %q value is not quoted", lname)
		}
		i++
		for i < len(line) && line[i] != '"' {
			if line[i] == '\\' {
				if i+1 >= len(line) {
					return 0, fmt.Errorf("label %q value has a dangling escape", lname)
				}
				switch line[i+1] {
				case '\\', '"', 'n':
				default:
					return 0, fmt.Errorf("label %q value has invalid escape \\%c", lname, line[i+1])
				}
				i++
			}
			i++
		}
		if i >= len(line) {
			return 0, fmt.Errorf("label %q value is unterminated", lname)
		}
		i++ // closing '"'
		if i < len(line) && line[i] == ',' {
			i++
		}
	}
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
