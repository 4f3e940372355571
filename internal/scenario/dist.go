package scenario

import (
	"fmt"

	"repro/internal/workload"
)

// Distribution type tags used in DistSpec.Type.
const (
	DistConstant    = "constant"
	DistUniform     = "uniform"
	DistExponential = "exponential"
	DistPareto      = "pareto"
)

// DistSpec is the declarative form of a workload.Distribution: a type tag
// plus the parameters the type uses. Flat fields keep the JSON form trivially
// round-trippable.
type DistSpec struct {
	Type string `json:"type"`
	// Value is the constant for "constant".
	Value float64 `json:"value,omitempty"`
	// Lo and Hi bound "uniform".
	Lo float64 `json:"lo,omitempty"`
	Hi float64 `json:"hi,omitempty"`
	// Mean parameterizes "exponential".
	Mean float64 `json:"mean,omitempty"`
	// Xm, Alpha and Shift parameterize "pareto".
	Xm    float64 `json:"xm,omitempty"`
	Alpha float64 `json:"alpha,omitempty"`
	Shift float64 `json:"shift,omitempty"`
}

// ConstantDist returns a degenerate distribution.
func ConstantDist(value float64) DistSpec { return DistSpec{Type: DistConstant, Value: value} }

// UniformDist returns the continuous uniform distribution on [lo, hi).
func UniformDist(lo, hi float64) DistSpec { return DistSpec{Type: DistUniform, Lo: lo, Hi: hi} }

// ExponentialDist returns the exponential distribution with the given mean.
func ExponentialDist(mean float64) DistSpec { return DistSpec{Type: DistExponential, Mean: mean} }

// ParetoDist returns a shifted Pareto distribution.
func ParetoDist(xm, alpha, shift float64) DistSpec {
	return DistSpec{Type: DistPareto, Xm: xm, Alpha: alpha, Shift: shift}
}

// ICSIDist returns the paper's ICSI flow-length model: the Pareto(147, 0.5)
// fit of Figure 3 shifted by 40 bytes, plus extraBytes on every sample
// (the evaluation adds 16 kB in §5.1).
func ICSIDist(extraBytes float64) DistSpec { return ParetoDist(147, 0.5, 40+extraBytes) }

// Validate reports whether the distribution spec is usable.
func (d DistSpec) Validate() error {
	switch d.Type {
	case DistConstant:
		if d.Value <= 0 {
			return fmt.Errorf("scenario: constant distribution needs a positive value")
		}
	case DistUniform:
		if d.Hi < d.Lo {
			return fmt.Errorf("scenario: uniform distribution has hi < lo")
		}
	case DistExponential:
		if d.Mean <= 0 {
			return fmt.Errorf("scenario: exponential distribution needs a positive mean")
		}
	case DistPareto:
		if d.Xm <= 0 || d.Alpha <= 0 {
			return fmt.Errorf("scenario: pareto distribution needs positive xm and alpha")
		}
	case "":
		return fmt.Errorf("scenario: distribution has no type")
	default:
		return fmt.Errorf("scenario: unknown distribution type %q", d.Type)
	}
	return nil
}

// distBox holds one compiled distribution in place. Flows and churn classes
// keep their boxes from world to world, so compiling a new world's
// distributions into them allocates nothing.
type distBox struct {
	constant    workload.Constant
	uniform     workload.Uniform
	exponential workload.Exponential
	pareto      workload.Pareto
}

// compile writes the spec, which Validate accepted, into box and returns the
// sampling distribution it now holds.
func (d DistSpec) compile(box *distBox) workload.Distribution {
	switch d.Type {
	case DistConstant:
		box.constant = workload.Constant{Value: d.Value}
		return &box.constant
	case DistUniform:
		box.uniform = workload.Uniform{Lo: d.Lo, Hi: d.Hi}
		return &box.uniform
	case DistExponential:
		box.exponential = workload.Exponential{MeanValue: d.Mean}
		return &box.exponential
	default: // DistPareto; Validate rejected everything else
		box.pareto = workload.Pareto{Xm: d.Xm, Alpha: d.Alpha, Shift: d.Shift}
		return &box.pareto
	}
}

// Workload mode names used in WorkloadSpec.Mode.
const (
	ModeByBytes = "bytes"
	ModeByTime  = "time"
)

// WorkloadSpec is the declarative form of a workload.Spec.
type WorkloadSpec struct {
	// Mode is "bytes" (on period ends after sampled bytes are delivered) or
	// "time" (on period ends after a sampled duration).
	Mode string `json:"mode"`
	// On is the distribution of on-period lengths (bytes or seconds).
	On DistSpec `json:"on"`
	// Off is the distribution of off-period durations in seconds.
	Off DistSpec `json:"off"`
	// StartOn forces the first period to be an on period with no idle wait.
	StartOn bool `json:"start_on,omitempty"`
}

// ByBytesWorkload describes senders that transmit a sampled number of bytes
// per on period.
func ByBytesWorkload(on, off DistSpec) WorkloadSpec {
	return WorkloadSpec{Mode: ModeByBytes, On: on, Off: off}
}

// ByTimeWorkload describes senders that stay on for a sampled duration.
func ByTimeWorkload(on, off DistSpec) WorkloadSpec {
	return WorkloadSpec{Mode: ModeByTime, On: on, Off: off}
}

// Validate reports whether the workload spec is usable.
func (w WorkloadSpec) Validate() error {
	if w.Mode != ModeByBytes && w.Mode != ModeByTime {
		return fmt.Errorf("scenario: workload mode must be %q or %q, got %q", ModeByBytes, ModeByTime, w.Mode)
	}
	if err := w.On.Validate(); err != nil {
		return fmt.Errorf("scenario: workload on: %w", err)
	}
	if err := w.Off.Validate(); err != nil {
		return fmt.Errorf("scenario: workload off: %w", err)
	}
	return nil
}

// compile converts the spec, which Validate accepted, into the runtime
// workload form, its distributions held in the given boxes.
func (w WorkloadSpec) compile(on, off *distBox) workload.Spec {
	mode := workload.ByBytes
	if w.Mode == ModeByTime {
		mode = workload.ByTime
	}
	return workload.Spec{Mode: mode, On: w.On.compile(on), Off: w.Off.compile(off), StartOn: w.StartOn}
}
