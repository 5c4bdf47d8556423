package bench

import (
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.1, 1}, {0, 1}} {
		if got := Quantile(xs, c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("Median = %v, want 2.5", got)
	}
}

// TestSelfTimes checks that overlapping children are counted once and
// clipped to their parent.
func TestSelfTimes(t *testing.T) {
	tr := NewTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.Add("bench.job", 0, "j", at(0), at(100))
	tr.Add("serve.submit", root, "j", at(10), at(30))
	tr.Add("serve.exec", root, "j", at(20), at(50))
	tr.Add("store.append", root, "j", at(90), at(120))
	self := tr.SelfTimes()
	want := map[string]time.Duration{
		"bench": 50 * time.Millisecond, // 100 minus [10,50) and [90,100)
		"serve": 50 * time.Millisecond,
		"store": 30 * time.Millisecond,
	}
	for l, d := range want {
		if self[l] != d {
			t.Errorf("self time of %s = %v, want %v", l, self[l], d)
		}
	}
}
