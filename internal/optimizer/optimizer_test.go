package optimizer

import (
	"math"
	"testing"
)

func TestSGDStep(t *testing.T) {
	s := NewSGD(0.1)
	p := []float64{1, 2, 3}
	s.Apply(p, []float64{1, 0, -1})
	want := []float64{0.9, 2, 3.1}
	for i := range want {
		if math.Abs(p[i]-want[i]) > 1e-15 {
			t.Fatalf("p=%v", p)
		}
	}
	if s.Name() != "SGD" || s.LR() != 0.1 {
		t.Fatal("metadata")
	}
	s.SetLR(0.01)
	if s.LR() != 0.01 {
		t.Fatal("setlr")
	}
}

// Momentum is SGD with classical momentum: v ← μv + g; w ← w − lr·v —
// a reference rule the tests exercise the Optimizer interface with.
type Momentum struct {
	lr, mu float64
	v      []float64
}

// NewMomentum returns a momentum optimizer.
func NewMomentum(lr, mu float64) *Momentum { return &Momentum{lr: lr, mu: mu} }

// Name identifies the rule.
func (m *Momentum) Name() string { return "Momentum" }

// LR returns the current learning rate.
func (m *Momentum) LR() float64 { return m.lr }

// SetLR sets the learning rate.
func (m *Momentum) SetLR(lr float64) { m.lr = lr }

// Apply performs the momentum step. Unlike plain SGD the velocity decays
// every iteration for every coordinate, so the loop cannot skip zeros.
func (m *Momentum) Apply(params, avgGrad []float64) {
	if m.v == nil {
		m.v = make([]float64, len(params))
	}
	for i, g := range avgGrad {
		m.v[i] = m.mu*m.v[i] + g
		params[i] -= m.lr * m.v[i]
	}
}

func TestMomentumAccumulates(t *testing.T) {
	m := NewMomentum(1.0, 0.5)
	p := []float64{0}
	m.Apply(p, []float64{1}) // v=1, p=-1
	m.Apply(p, []float64{1}) // v=1.5, p=-2.5
	if math.Abs(p[0]+2.5) > 1e-15 {
		t.Fatalf("p=%v", p[0])
	}
	// Velocity decays even with zero gradient.
	m.Apply(p, []float64{0}) // v=0.75, p=-3.25
	if math.Abs(p[0]+3.25) > 1e-15 {
		t.Fatalf("p=%v after zero grad", p[0])
	}
	if m.Name() != "Momentum" {
		t.Fatal("name")
	}
}

func TestAdamFirstStepIsLRSized(t *testing.T) {
	// With bias correction, the first Adam step is ≈lr·sign(g).
	a := NewAdam(0.001, 0.9, 0.999, 0)
	p := []float64{0, 0}
	a.Apply(p, []float64{0.5, -2})
	if math.Abs(p[0]+0.001) > 1e-6 || math.Abs(p[1]-0.001) > 1e-6 {
		t.Fatalf("first step %v, want ±lr", p)
	}
}

func TestAdamWeightDecay(t *testing.T) {
	a := NewAdam(0.1, 0.9, 0.999, 0.5)
	p := []float64{10}
	a.Apply(p, []float64{0})
	// Zero gradient: update is pure decoupled decay lr*wd*w = 0.5.
	if math.Abs(p[0]-9.5) > 1e-9 {
		t.Fatalf("p=%v want 9.5", p[0])
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize f(w) = (w-3)², gradient 2(w-3).
	a := NewAdam(0.1, 0.9, 0.999, 0)
	p := []float64{0}
	for i := 0; i < 500; i++ {
		a.Apply(p, []float64{2 * (p[0] - 3)})
	}
	if math.Abs(p[0]-3) > 0.05 {
		t.Fatalf("Adam did not converge: w=%v", p[0])
	}
	if a.Name() != "Adam" {
		t.Fatal("name")
	}
}

func TestLinearDecay(t *testing.T) {
	if LinearDecay(1.0, 0, 100) != 1.0 {
		t.Fatal("start")
	}
	if LinearDecay(1.0, 50, 100) != 0.5 {
		t.Fatal("middle")
	}
	if LinearDecay(1.0, 100, 100) != 0 || LinearDecay(1.0, 150, 100) != 0 {
		t.Fatal("end")
	}
}

func TestStepDecay(t *testing.T) {
	if StepDecay(1.0, 10, 100, 0.5, 0.8) != 1.0 {
		t.Fatal("before milestones")
	}
	if StepDecay(1.0, 50, 100, 0.5, 0.8) != 0.1 {
		t.Fatal("after first milestone")
	}
	if math.Abs(StepDecay(1.0, 90, 100, 0.5, 0.8)-0.01) > 1e-15 {
		t.Fatal("after both milestones")
	}
}
