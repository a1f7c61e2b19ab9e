package topology

import "testing"

// The P3 repair rebuilds the full n×n table set, so its allocation count is
// pinned: one slab and one row header for the tables, three wave buffers.
func TestUpDownTablesAllocs(t *testing.T) {
	m := NewMesh(16, 8) // 128 routers
	v := NewView(m)
	v.FailRouter(37)
	v.FailLink(m.Adjacency(90)[0].Link)
	_, bft := v.DiameterBound()
	allocs := testing.AllocsPerRun(5, func() { UpDownTables(v, bft) })
	if allocs > 8 {
		t.Fatalf("UpDownTables at 128 routers: %.0f allocations, want <= 8", allocs)
	}
}

// Rows share one slab but are capped at their own length: appending to a
// row must reallocate rather than overwrite the next row's entries.
func TestNewTablesRowAppendIsolation(t *testing.T) {
	const n = 4
	tb := NewTables(n)
	grown := append(tb[1], 99)
	grown[0] = 7
	if tb[2][0] != -1 || tb[2][2] != PortLocal {
		t.Fatalf("append to row 1 wrote into row 2: %v", tb[2])
	}
	if tb[1][0] != -1 {
		t.Fatalf("append to row 1 aliased its original: %v", tb[1])
	}
	for r := range tb {
		if len(tb[r]) != n || cap(tb[r]) != n {
			t.Fatalf("row %d: len %d cap %d, want %d", r, len(tb[r]), cap(tb[r]), n)
		}
	}
}
