package experiments

import (
	"testing"

	"repro/internal/workload"
)

// BenchmarkPredictorPass measures the predictor study's functional
// pass (every Figure 4, Table 3, Figure 5 and E9 classifier) on
// 130.li at n=100k. The program and its profile oracle are memoized
// before the timer starts.
func BenchmarkPredictorPass(b *testing.B) {
	w, _ := workload.ByName("130.li")
	r := NewRunner()
	r.Workloads = []*workload.Workload{w}
	r.MaxInsts = 100_000
	r.Parallel = 1
	if _, err := r.Profile(w); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.predictorPass(w); err != nil {
			b.Fatal(err)
		}
	}
}
