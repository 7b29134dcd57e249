package blif

// TopoOrdered exposes topoOrdered to the external tests.
var TopoOrdered = topoOrdered
