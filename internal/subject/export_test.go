package subject

import "dagcover/internal/logic"

// Key-layout opcodes, for the external cone-key tests' reference
// encoder and decoder.
const (
	ConeOpRef    = coneOpRef
	ConeOpNew    = coneOpNew
	ConeOpExpand = coneOpExpand
)

// Expr is the one-shot form of ExprBuilder.Expr.
func Expr(g *Graph, n Node, boundary map[Node]string) (*logic.Expr, error) {
	var b ExprBuilder
	return b.Expr(g, n, boundary)
}
