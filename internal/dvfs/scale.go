package dvfs

import "fmt"

// Scale is the DVFS operating envelope of one clock domain: its
// frequency ladder, matched voltage range and ramp speed. The package's
// top-level functions operate on DefaultScale (the paper's Table 1
// envelope); topologies with per-domain envelopes hand each clock its
// own Scale. Every numeric formula here is shared with the top-level
// functions, so a Scale equal to DefaultScale() computes bit-identical
// results.
type Scale struct {
	// FMinMHz and FMaxMHz bound the domain's frequency.
	FMinMHz, FMaxMHz int
	// StepMHz is the ladder granularity.
	StepMHz int
	// VMin and VMax bound the supply voltage; voltage tracks frequency
	// linearly across the range.
	VMin, VMax float64
	// RampPsPerMHz is the frequency change speed in picoseconds per MHz.
	RampPsPerMHz int64
}

// DefaultScale returns the paper's Table 1 envelope: 250 MHz – 1 GHz in
// 25 MHz steps, 0.65 V – 1.20 V, 73.3 ns/MHz.
func DefaultScale() Scale {
	return Scale{
		FMinMHz:      FMinMHz,
		FMaxMHz:      FMaxMHz,
		StepMHz:      StepMHz,
		VMin:         VMin,
		VMax:         VMax,
		RampPsPerMHz: RampPsPerMHz,
	}
}

// IsDefault reports whether the scale equals the package default.
func (s Scale) IsDefault() bool { return s == DefaultScale() }

// Validate checks the scale's internal consistency.
func (s Scale) Validate() error {
	if s.FMinMHz <= 0 || s.FMaxMHz <= 0 {
		return fmt.Errorf("non-positive frequency bound %d-%d MHz", s.FMinMHz, s.FMaxMHz)
	}
	if s.FMinMHz >= s.FMaxMHz {
		return fmt.Errorf("inverted frequency range %d-%d MHz", s.FMinMHz, s.FMaxMHz)
	}
	if s.StepMHz <= 0 || (s.FMaxMHz-s.FMinMHz)%s.StepMHz != 0 {
		return fmt.Errorf("ladder step %d MHz does not divide range %d-%d MHz", s.StepMHz, s.FMinMHz, s.FMaxMHz)
	}
	if s.VMin <= 0 || s.VMin > s.VMax {
		return fmt.Errorf("inverted or non-positive voltage range %.3f-%.3f V", s.VMin, s.VMax)
	}
	if s.RampPsPerMHz <= 0 {
		return fmt.Errorf("non-positive ramp rate %d ps/MHz", s.RampPsPerMHz)
	}
	return nil
}

// NumSteps returns the number of operating points on the ladder.
func (s Scale) NumSteps() int { return (s.FMaxMHz-s.FMinMHz)/s.StepMHz + 1 }

// Clamp restricts mhz to the scale's legal operating range.
func (s Scale) Clamp(mhz int) int {
	if mhz < s.FMinMHz {
		return s.FMinMHz
	}
	if mhz > s.FMaxMHz {
		return s.FMaxMHz
	}
	return mhz
}

// Quantize snaps mhz to the nearest ladder step within the legal range.
func (s Scale) Quantize(mhz int) int {
	mhz = s.Clamp(mhz)
	down := (mhz - s.FMinMHz) / s.StepMHz * s.StepMHz
	rem := mhz - s.FMinMHz - down
	if rem*2 >= s.StepMHz {
		down += s.StepMHz
	}
	return s.FMinMHz + down
}

// QuantizeDown snaps mhz down to the ladder step at or below it.
func (s Scale) QuantizeDown(mhz int) int {
	mhz = s.Clamp(mhz)
	return s.FMinMHz + (mhz-s.FMinMHz)/s.StepMHz*s.StepMHz
}

// QuantizeUp snaps mhz up to the ladder step at or above it.
func (s Scale) QuantizeUp(mhz int) int {
	mhz = s.Clamp(mhz)
	up := (mhz - s.FMinMHz + s.StepMHz - 1) / s.StepMHz * s.StepMHz
	return s.FMinMHz + up
}

// VoltageFor returns the supply voltage matched to mhz: linear
// interpolation between (FMinMHz, VMin) and (FMaxMHz, VMax), clamped at
// the range ends. The default scale delegates to the package function so
// its voltage ladder is bit-identical to the historical constant-folded
// arithmetic (a runtime VMax-VMin differs from the folded constant in
// the last ulp).
func (s Scale) VoltageFor(mhz int) float64 {
	if s == DefaultScale() {
		return VoltageFor(mhz)
	}
	switch {
	case mhz <= s.FMinMHz:
		return s.VMin
	case mhz >= s.FMaxMHz:
		return s.VMax
	}
	frac := float64(mhz-s.FMinMHz) / float64(s.FMaxMHz-s.FMinMHz)
	return s.VMin + frac*(s.VMax-s.VMin)
}

// AppendRamp appends to dst the sequence of effective-frequency changes
// for a ramp from fromMHz to toMHz beginning at start, one ladder notch
// at a time at the scale's ramp speed, and returns the extended slice;
// a caller that plans ramps repeatedly reuses one buffer. Both
// endpoints must be ladder points.
func (s Scale) AppendRamp(dst []Change, fromMHz, toMHz int, start int64) []Change {
	s.mustLadder(fromMHz)
	s.mustLadder(toMHz)
	if fromMHz == toMHz {
		return dst
	}
	dir := s.StepMHz
	if toMHz < fromMHz {
		dir = -s.StepMHz
	}
	t := start
	for f := fromMHz + dir; ; f += dir {
		t += int64(s.StepMHz) * s.RampPsPerMHz
		dst = append(dst, Change{At: t, MHz: f})
		if f == toMHz {
			break
		}
	}
	return dst
}

// mustLadder panics if mhz is not a ladder point of the scale.
func (s Scale) mustLadder(mhz int) {
	if (mhz-s.FMinMHz)%s.StepMHz != 0 || mhz < s.FMinMHz || mhz > s.FMaxMHz {
		panic(fmt.Sprintf("dvfs: %d MHz is not a ladder point of %d-%d/%d", mhz, s.FMinMHz, s.FMaxMHz, s.StepMHz))
	}
}
