// Package optimizer implements the parameter-update rules used in the
// paper's evaluation: plain SGD (VGG, LSTM) and Adam (BERT). Updates are
// applied from a dense update vector u (the allreduce output divided by
// P), matching the paper's structure where the sparse allreduce runs on
// raw gradients and the optimizer is applied afterwards.
package optimizer

import "math"

// Optimizer applies an averaged gradient to a parameter vector.
type Optimizer interface {
	Name() string
	// Apply updates params in place given the averaged gradient for this
	// iteration. For sparse schemes most entries of avgGrad are zero;
	// implementations may exploit that.
	Apply(params, avgGrad []float64)
	// LR returns the current learning rate (after any schedule).
	LR() float64
	// SetLR overrides the learning rate (schedules call this).
	SetLR(lr float64)
}

// SGD is plain stochastic gradient descent: w ← w − lr·g.
type SGD struct {
	lr float64
}

// NewSGD returns an SGD optimizer with the given learning rate.
func NewSGD(lr float64) *SGD { return &SGD{lr: lr} }

// Name identifies the rule.
func (s *SGD) Name() string { return "SGD" }

// LR returns the current learning rate.
func (s *SGD) LR() float64 { return s.lr }

// SetLR sets the learning rate.
func (s *SGD) SetLR(lr float64) { s.lr = lr }

// Apply performs the descent step, skipping zero entries (the common
// case for sparse updates).
func (s *SGD) Apply(params, avgGrad []float64) {
	for i, g := range avgGrad {
		if g != 0 {
			params[i] -= s.lr * g
		}
	}
}

// Adam implements Kingma & Ba with bias correction and decoupled weight
// decay (the paper's BERT configuration: lr=2e-4, β1=0.9, β2=0.999,
// weight decay 0.01, linear decay schedule applied by the caller).
type Adam struct {
	lr, beta1, beta2, eps, wd float64
	m, v                      []float64
	t                         int
}

// NewAdam returns an Adam optimizer.
func NewAdam(lr, beta1, beta2, weightDecay float64) *Adam {
	return &Adam{lr: lr, beta1: beta1, beta2: beta2, eps: 1e-8, wd: weightDecay}
}

// Name identifies the rule.
func (a *Adam) Name() string { return "Adam" }

// LR returns the current learning rate.
func (a *Adam) LR() float64 { return a.lr }

// SetLR sets the learning rate.
func (a *Adam) SetLR(lr float64) { a.lr = lr }

// Apply performs one Adam step.
func (a *Adam) Apply(params, avgGrad []float64) {
	if a.m == nil {
		a.m = make([]float64, len(params))
		a.v = make([]float64, len(params))
	}
	a.t++
	c1 := 1 - math.Pow(a.beta1, float64(a.t))
	c2 := 1 - math.Pow(a.beta2, float64(a.t))
	for i, g := range avgGrad {
		a.m[i] = a.beta1*a.m[i] + (1-a.beta1)*g
		a.v[i] = a.beta2*a.v[i] + (1-a.beta2)*g*g
		mh := a.m[i] / c1
		vh := a.v[i] / c2
		params[i] -= a.lr * (mh/(math.Sqrt(vh)+a.eps) + a.wd*params[i])
	}
}

// State exposes Adam's moment vectors and step counter for
// checkpointing; the slices alias internal state (copy before storing if
// the optimizer keeps running). Nil moments mean Apply has not run yet.
func (a *Adam) State() (m, v []float64, t int) { return a.m, a.v, a.t }

// SetState installs checkpointed moments (copied) and step counter.
func (a *Adam) SetState(m, v []float64, t int) {
	if len(m) != len(v) {
		panic("optimizer: Adam moment length mismatch")
	}
	a.m = append([]float64(nil), m...)
	a.v = append([]float64(nil), v...)
	a.t = t
}

// LinearDecay returns the learning rate after linear decay from base to
// zero over totalSteps, evaluated at step (1-based).
func LinearDecay(base float64, step, totalSteps int) float64 {
	if step >= totalSteps {
		return 0
	}
	return base * (1 - float64(step)/float64(totalSteps))
}

// StepDecay divides the base rate by 10 at each milestone fraction of
// training (the "simply diminishing the learning rate" schedule the
// paper uses for VGG/LSTM).
func StepDecay(base float64, step, totalSteps int, milestones ...float64) float64 {
	lr := base
	for _, m := range milestones {
		if float64(step) >= m*float64(totalSteps) {
			lr /= 10
		}
	}
	return lr
}
