package experiments

import "testing"

// BenchmarkTable4 times one full Table 4 at the paper's defaults: all four
// memory configurations, 4000 transactions each, on the database model's
// lock manager and the serial virtual-time engine. ns/op is host time per
// table, the figure the commit path and process start-up dominate.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := Table4(0, 0)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.OK {
			b.Fatalf("Table 4 missed its paper values:\n%s", rep.Output)
		}
	}
}
