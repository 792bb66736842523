package mw

import "repro/internal/cc"

// OpenTables returns, by node id, the counts tables of the nodes fulfilled and
// not yet closed.
func OpenTables(m *Middleware) map[int]*cc.Table {
	out := make(map[int]*cc.Table, len(m.open))
	for id, res := range m.open {
		out[id] = res.CC
	}
	return out
}
