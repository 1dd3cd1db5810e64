// Package rng provides small, fast, deterministic pseudo-random number
// generators and distribution samplers for the simulator.
//
// The simulator cannot use math/rand's global state: every component needs
// its own seeded stream so that adding a component does not perturb the
// random sequence seen by the others (which would break golden tests and
// A/B comparisons between profiles).
package rng

import "math"

// splitMix64 advances the SplitMix64 state and returns the next value.
// It is used both as a seed expander and as a standalone generator.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a xoshiro256** generator. The zero value is invalid; use New.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via SplitMix64 (so any seed,
// including 0, yields a well-mixed state).
func New(seed uint64) *Rand {
	var r Rand
	st := seed
	for i := range r.s {
		r.s[i] = splitMix64(&st)
	}
	return &r
}

// Fork derives an independent child generator. Components should Fork the
// parent stream once at construction time.
func (r *Rand) Fork() *Rand {
	return New(r.Uint64() ^ 0xa3cc1b5d36f2aa9d)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with n <= 0")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// Exp returns an exponentially distributed sample with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	u := r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -mean * math.Log(1-u)
}

// Normal returns a normally distributed sample (Box–Muller).
func (r *Rand) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// LogNormal returns exp(Normal(mu, sigma)); useful for heavy-ish service
// time noise that never goes negative.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Gamma returns a Gamma(shape, scale) sample (shape > 0, scale > 0) via
// Marsaglia–Tsang squeeze-rejection; shape < 1 uses the boost
// Gamma(shape+1)·U^(1/shape). Gamma interarrivals model burstier-than-
// Poisson (shape < 1) or smoother-than-Poisson (shape > 1) tenant traffic.
func (r *Rand) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("rng: Gamma needs shape > 0 and scale > 0")
	}
	if shape < 1 {
		u := r.Float64()
		if u < 1e-300 {
			u = 1e-300
		}
		return r.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = r.Normal(0, 1)
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if u < 1e-300 {
			u = 1e-300
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// Weibull returns a Weibull(shape, scale) sample (shape > 0, scale > 0) by
// inversion: scale·(-ln(1-U))^(1/shape). Shape < 1 gives heavy-tailed
// interarrivals (flash-crowd-like clumping), shape > 1 near-periodic ones.
func (r *Rand) Weibull(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("rng: Weibull needs shape > 0 and scale > 0")
	}
	u := r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return scale * math.Pow(-math.Log(1-u), 1/shape)
}

// Pareto returns a Pareto(xm, alpha) sample (alpha > 0), used for rare
// large stalls such as SSD GC pauses.
func (r *Rand) Pareto(xm, alpha float64) float64 {
	u := r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return xm / math.Pow(1-u, 1/alpha)
}
