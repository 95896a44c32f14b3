package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestEmptySample(t *testing.T) {
	var s Sample
	if s.N() != 0 || s.Mean() != 0 || s.StdDev() != 0 || s.Min() != 0 || s.RelStdDev() != 0 {
		t.Error("empty sample should report zeros")
	}
}

func TestSampleBasics(t *testing.T) {
	var s Sample
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if !almost(s.Mean(), 5) {
		t.Errorf("Mean = %v", s.Mean())
	}
	// Bessel-corrected sd of this classic data set: sqrt(32/7).
	if !almost(s.StdDev(), math.Sqrt(32.0/7.0)) {
		t.Errorf("StdDev = %v", s.StdDev())
	}
	if s.Min() != 2 {
		t.Errorf("Min = %v", s.Min())
	}
}

func TestAddUintAndValues(t *testing.T) {
	var s Sample
	s.AddUint(3)
	s.AddUint(5)
	vals := s.Values()
	if len(vals) != 2 || vals[0] != 3 || vals[1] != 5 {
		t.Errorf("Values = %v", vals)
	}
	vals[0] = 100 // must not alias
	if s.Mean() != 4 {
		t.Error("Values aliases internal storage")
	}
}

func TestRelStdDev(t *testing.T) {
	var s Sample
	s.Add(90)
	s.Add(110)
	// mean 100, sd = sqrt(200) ≈ 14.142 → 14.142%
	if !almost(s.RelStdDev(), 100*math.Sqrt(200)/100) {
		t.Errorf("RelStdDev = %v", s.RelStdDev())
	}
	var zero Sample
	zero.Add(0)
	zero.Add(0)
	if zero.RelStdDev() != 0 {
		t.Error("RelStdDev with zero mean should be 0")
	}
}

func TestSingleObservationStdDev(t *testing.T) {
	var s Sample
	s.Add(42)
	if s.StdDev() != 0 {
		t.Error("single observation must have sd 0")
	}
}

func TestNormalize(t *testing.T) {
	if Normalize(50, 100) != 0.5 {
		t.Error("Normalize(50,100)")
	}
	if Normalize(0, 0) != 1 {
		t.Error("Normalize(0,0) should be 1 (no change)")
	}
	if !math.IsInf(Normalize(1, 0), 1) {
		t.Error("Normalize(1,0) should be +Inf")
	}
}

func TestPearsonCorrelation(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	if !almost(PearsonCorrelation(a, []float64{2, 4, 6, 8}), 1) {
		t.Error("perfect positive correlation")
	}
	if !almost(PearsonCorrelation(a, []float64{8, 6, 4, 2}), -1) {
		t.Error("perfect negative correlation")
	}
	if PearsonCorrelation(a, []float64{5, 5, 5, 5}) != 0 {
		t.Error("constant vector should give 0")
	}
	if PearsonCorrelation(a, []float64{1, 2}) != 0 {
		t.Error("length mismatch should give 0")
	}
	if PearsonCorrelation(nil, nil) != 0 {
		t.Error("empty vectors should give 0")
	}
}

// TestPearsonBoundsProperty: correlation always lies in [-1, 1] and is
// symmetric.
func TestPearsonBoundsProperty(t *testing.T) {
	f := func(pairs [][2]float64) bool {
		if len(pairs) < 2 {
			return true
		}
		a := make([]float64, len(pairs))
		b := make([]float64, len(pairs))
		for i, p := range pairs {
			// Tame infinities/NaN from quick's generator.
			if math.IsNaN(p[0]) || math.IsNaN(p[1]) || math.IsInf(p[0], 0) || math.IsInf(p[1], 0) {
				return true
			}
			a[i], b[i] = p[0], p[1]
		}
		r := PearsonCorrelation(a, b)
		if math.IsNaN(r) || r < -1.0000001 || r > 1.0000001 {
			return false
		}
		return almost(r, PearsonCorrelation(b, a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestStdDevShiftInvariance: adding a constant must not change the sd.
func TestStdDevShiftInvariance(t *testing.T) {
	f := func(xs []float64, shift float64) bool {
		if len(xs) < 2 || math.IsNaN(shift) || math.IsInf(shift, 0) {
			return true
		}
		var a, b Sample
		for _, x := range xs {
			if math.IsNaN(x) || math.Abs(x) > 1e12 || math.Abs(shift) > 1e12 {
				return true
			}
			a.Add(x)
			b.Add(x + shift)
		}
		return math.Abs(a.StdDev()-b.StdDev()) < 1e-6*(1+a.StdDev())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSampleString(t *testing.T) {
	var s Sample
	s.Add(1)
	s.Add(3)
	if got := s.String(); got == "" {
		t.Error("String empty")
	}
}
