package genlib

import "testing"

// Test inputs shared with the external test package (fuzz_test.go).
const SampleLib = sampleLib

func WideGate(t *testing.T, n int) *Gate { return wideGate(t, n) }
