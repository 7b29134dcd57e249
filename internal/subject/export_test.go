package subject

// Key-layout opcodes, for the external cone-key tests' reference
// encoder and decoder.
const (
	ConeOpRef    = coneOpRef
	ConeOpNew    = coneOpNew
	ConeOpExpand = coneOpExpand
)
