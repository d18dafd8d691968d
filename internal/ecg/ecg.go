// Package ecg is the repository's bio-signal substrate: a synthetic ECG
// generator with ground-truth R-peak annotations, standing in for the
// MIT-BIH Normal Sinus Rhythm Database records the paper evaluates on
// (PhysioNet is unavailable offline).
//
// The generator follows the ECGSYN modelling idea: each heartbeat is a sum
// of Gaussian waves (P, Q, R, S, T) placed relative to the R peak, with
// beat-to-beat RR-interval variability and respiratory sinus arrhythmia.
// Acquisition noise — baseline wander, mains interference and muscle
// (EMG) noise — is added before a 16-bit ADC model quantises the signal at
// 200 Hz, the acquisition chain the Pan-Tompkins algorithm assumes
// (paper §3).
package ecg

import (
	"fmt"
	"math"
	"math/rand"
)

// DefaultFS is the paper's sampling rate in Hz.
const DefaultFS = 200

// Wave is one Gaussian component of the heartbeat template.
type Wave struct {
	AmpMV   float64 // peak amplitude in millivolts (signed)
	CenterS float64 // centre relative to the R peak, seconds
	SigmaS  float64 // Gaussian width, seconds
}

// Beat is the per-beat wave template.
type Beat struct {
	P, Q, R, S, T Wave
}

// DefaultBeat returns a normal-sinus beat template with textbook wave
// amplitudes and timings.
func DefaultBeat() Beat {
	return Beat{
		P: Wave{AmpMV: 0.15, CenterS: -0.20, SigmaS: 0.025},
		Q: Wave{AmpMV: -0.10, CenterS: -0.030, SigmaS: 0.010},
		R: Wave{AmpMV: 1.20, CenterS: 0, SigmaS: 0.012},
		S: Wave{AmpMV: -0.25, CenterS: 0.030, SigmaS: 0.010},
		T: Wave{AmpMV: 0.35, CenterS: 0.25, SigmaS: 0.050},
	}
}

// Noise configures the acquisition noise model (amplitudes in mV).
type Noise struct {
	BaselineMV float64 // baseline wander (respiration-band sinusoids)
	BaselineHz float64 // dominant wander frequency
	MainsMV    float64 // powerline interference amplitude
	MainsHz    float64 // powerline frequency (50 or 60)
	MuscleMV   float64 // white EMG noise standard deviation
}

// DefaultNoise returns a mild, realistic noise mix.
func DefaultNoise() Noise {
	return Noise{BaselineMV: 0.12, BaselineHz: 0.25, MainsMV: 0.04, MainsHz: 50, MuscleMV: 0.02}
}

// Config fully describes one synthetic recording.
type Config struct {
	FS         int     // sampling rate (Hz)
	HeartRate  float64 // mean heart rate, beats per minute
	HRVStd     float64 // RR jitter as a fraction of the RR interval
	RespRateHz float64 // respiratory sinus arrhythmia frequency
	RSADepth   float64 // RR modulation depth from respiration (fraction)
	Beat       Beat
	Noise      Noise
	ADCBits    int     // ADC resolution (the paper uses 16)
	ADCRangeMV float64 // full-scale range: counts span +-2^(bits-1) over +-range
	Seed       int64
	// EctopicRate is the probability that a beat is a premature
	// ventricular-style ectopic (early, wide, no P wave) — the workload
	// for the arrhythmia-screening extension (the paper's future-work
	// direction).
	EctopicRate float64
}

// DefaultConfig returns the acquisition chain of the paper: 200 Hz, 16-bit
// ADC, normal sinus rhythm at 72 bpm.
func DefaultConfig() Config {
	return Config{
		FS:         DefaultFS,
		HeartRate:  72,
		HRVStd:     0.04,
		RespRateHz: 0.25,
		RSADepth:   0.03,
		Beat:       DefaultBeat(),
		Noise:      DefaultNoise(),
		ADCBits:    16,
		ADCRangeMV: 5.0,
		Seed:       1,
	}
}

// Record is one annotated recording: ADC samples plus ground-truth R-peak
// sample indices (the role PhysioNet reference annotations play in the
// paper's accuracy metric).
type Record struct {
	Name        string
	FS          int
	Samples     []int16
	Annotations []int
	// Ectopic flags which annotations are premature ectopic beats
	// (aligned with Annotations; nil when the record has none).
	Ectopic []bool
}

// DurationSec returns the record length in seconds.
func (r *Record) DurationSec() float64 { return float64(len(r.Samples)) / float64(r.FS) }

// Validate checks config sanity.
func (c Config) Validate() error {
	if c.FS <= 0 {
		return fmt.Errorf("ecg: sampling rate %d must be positive", c.FS)
	}
	if c.HeartRate < 20 || c.HeartRate > 250 {
		return fmt.Errorf("ecg: heart rate %.1f out of physiological range", c.HeartRate)
	}
	if c.ADCBits < 2 || c.ADCBits > 16 {
		return fmt.Errorf("ecg: ADC bits %d out of range [2,16]", c.ADCBits)
	}
	if c.ADCRangeMV <= 0 {
		return fmt.Errorf("ecg: ADC range %.2f must be positive", c.ADCRangeMV)
	}
	return nil
}

// Generate synthesises a record of n samples.
func (c Config) Generate(name string, n int) (*Record, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("ecg: sample count %d must be positive", n)
	}
	rng := rand.New(rand.NewSource(c.Seed))
	fs := float64(c.FS)
	dur := float64(n) / fs

	// Beat times: RR intervals with Gaussian jitter and respiratory
	// modulation; ectopic beats arrive early and are followed by a
	// compensatory pause.
	meanRR := 60 / c.HeartRate
	var beats []float64
	var ectopic []bool
	t := meanRR * (0.5 + 0.25*rng.Float64()) // first beat away from the edge
	compensate := false
	for t < dur+meanRR {
		isEctopic := !compensate && c.EctopicRate > 0 && rng.Float64() < c.EctopicRate
		beats = append(beats, t)
		ectopic = append(ectopic, isEctopic)
		rr := meanRR * (1 + c.HRVStd*rng.NormFloat64() +
			c.RSADepth*math.Sin(2*math.Pi*c.RespRateHz*t))
		switch {
		case isEctopic:
			rr *= 0.60 // premature coupling interval
			compensate = true
		case compensate:
			rr *= 1.35 // compensatory pause
			compensate = false
		}
		if rr < 0.25 {
			rr = 0.25
		}
		t += rr
	}

	mv := make([]float64, n)
	normalWaves := [5]Wave{c.Beat.P, c.Beat.Q, c.Beat.R, c.Beat.S, c.Beat.T}
	// Ectopic morphology: no P wave, wider and taller R, deeper S,
	// inverted T — a PVC-like template.
	ectopicWaves := [5]Wave{
		{},
		{AmpMV: -0.15, CenterS: -0.045, SigmaS: 0.015},
		{AmpMV: c.Beat.R.AmpMV * 1.25, CenterS: 0, SigmaS: c.Beat.R.SigmaS * 2.2},
		{AmpMV: -0.45, CenterS: 0.055, SigmaS: 0.020},
		{AmpMV: -c.Beat.T.AmpMV, CenterS: 0.28, SigmaS: 0.06},
	}
	for bi, bt := range beats {
		waves := normalWaves
		if ectopic[bi] {
			waves = ectopicWaves
		}
		for _, w := range waves {
			if w.AmpMV == 0 || w.SigmaS <= 0 {
				continue
			}
			center := bt + w.CenterS
			lo := int(math.Floor((center - 5*w.SigmaS) * fs))
			hi := int(math.Ceil((center + 5*w.SigmaS) * fs))
			if lo < 0 {
				lo = 0
			}
			if hi >= n {
				hi = n - 1
			}
			for i := lo; i <= hi; i++ {
				dt := float64(i)/fs - center
				mv[i] += w.AmpMV * math.Exp(-dt*dt/(2*w.SigmaS*w.SigmaS))
			}
		}
	}

	// Acquisition noise.
	nz := c.Noise
	ph1, ph2, ph3 := 2*math.Pi*rng.Float64(), 2*math.Pi*rng.Float64(), 2*math.Pi*rng.Float64()
	for i := 0; i < n; i++ {
		ts := float64(i) / fs
		if nz.BaselineMV != 0 {
			mv[i] += nz.BaselineMV * (math.Sin(2*math.Pi*nz.BaselineHz*ts+ph1) +
				0.4*math.Sin(2*math.Pi*1.7*nz.BaselineHz*ts+ph2))
		}
		if nz.MainsMV != 0 {
			mv[i] += nz.MainsMV * math.Sin(2*math.Pi*nz.MainsHz*ts+ph3)
		}
		if nz.MuscleMV != 0 {
			mv[i] += nz.MuscleMV * rng.NormFloat64()
		}
	}

	// 16-bit ADC.
	rec := &Record{Name: name, FS: c.FS, Samples: make([]int16, n)}
	scale := math.Exp2(float64(c.ADCBits-1)) / c.ADCRangeMV
	limit := math.Exp2(float64(c.ADCBits-1)) - 1
	for i, v := range mv {
		q := math.Round(v * scale)
		if q > limit {
			q = limit
		}
		if q < -limit-1 {
			q = -limit - 1
		}
		rec.Samples[i] = int16(q)
	}

	// Ground-truth annotations: R-peak sample indices inside the record.
	for bi, bt := range beats {
		idx := int(math.Round(bt * fs))
		if idx >= 0 && idx < n {
			rec.Annotations = append(rec.Annotations, idx)
			rec.Ectopic = append(rec.Ectopic, ectopic[bi])
		}
	}
	return rec, nil
}

// MilliVolts converts ADC samples back to millivolts (for plotting and
// floating-point metrics).
func (c Config) MilliVolts(samples []int16) []float64 {
	scale := c.ADCRangeMV / math.Exp2(float64(c.ADCBits-1))
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s) * scale
	}
	return out
}
