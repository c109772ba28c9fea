package experiments

import (
	"math"
	"os"
	"testing"
)

// TestFullScaleSmokeP256 is the gated large-P smoke: one FullScale
// runner configuration — the fig12 BERT weak-scaling panel at the
// paper's largest cluster size, P=256 — run for a short iteration
// count. It exists to catch scale-dependent regressions (mailbox or
// barrier contention, pool growth, O(P²) slips) that the quick-scale
// suite at P≤64 cannot see. Gated behind OKTOPK_FULLSCALE=1 because a
// 256-rank simulated cluster takes minutes; CI runs it on pushes to
// main (see .github/workflows/ci.yml).
func TestFullScaleSmokeP256(t *testing.T) {
	if os.Getenv("OKTOPK_FULLSCALE") == "" {
		t.Skip("set OKTOPK_FULLSCALE=1 to run the P=256 smoke (minutes)")
	}
	const p = 256 // FullScale().WeakPs["BERT"] top end
	bs := WeakScaling(Env{}, "BERT", p, 8, 3, 0.01, []string{"OkTopk", "DenseOvlp"})
	if len(bs) != 2 {
		t.Fatalf("got %d breakdowns", len(bs))
	}
	var ok, dense Breakdown
	for _, b := range bs {
		switch b.Algorithm {
		case "OkTopk":
			ok = b
		case "DenseOvlp":
			dense = b
		}
	}
	for _, b := range []Breakdown{ok, dense} {
		if b.P != p {
			t.Fatalf("%s ran at P=%d, want %d", b.Algorithm, b.P, p)
		}
		if !(b.Total > 0) || math.IsNaN(b.Total) || math.IsInf(b.Total, 0) {
			t.Fatalf("%s produced a degenerate total %v", b.Algorithm, b.Total)
		}
		if b.Total < b.Comm || b.Total < b.Compute {
			t.Fatalf("%s phase times inconsistent: %+v", b.Algorithm, b)
		}
	}
	// The paper's headline at scale: Ok-Topk's modeled iteration time
	// beats the overlapped dense baseline at P=256.
	if ok.Total >= dense.Total {
		t.Fatalf("OkTopk (%v s/iter) not faster than DenseOvlp (%v s/iter) at P=256",
			ok.Total, dense.Total)
	}
	t.Logf("P=256 BERT: OkTopk %.4f s/iter vs DenseOvlp %.4f s/iter (%.2fx)",
		ok.Total, dense.Total, dense.Total/ok.Total)
}
