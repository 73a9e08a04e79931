package dse

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"autoax/internal/accel"
	"autoax/internal/ml"
)

// trainingSet draws n random configurations of s with synthetic results.
func trainingSet(s Space, n int, seed int64) ([][]int, []accel.Result) {
	rng := rand.New(rand.NewSource(seed))
	cfgs := make([][]int, n)
	res := make([]accel.Result, n)
	for i := range cfgs {
		cfgs[i] = s.RandomConfig(rng)
		var w, a float64
		for k, c := range cfgs[i] {
			w += s[k][c].WMED
			a += s[k][c].Area
		}
		res[i] = accel.Result{SSIM: 1/(1+w) + rng.NormFloat64()*0.01, Area: a * (0.9 + 0.2*rng.Float64())}
	}
	return cfgs, res
}

// TestTrainModelsMatchesSequential pins the concurrent QoR/HW fit to
// fitting the two models one after the other, for every registry engine
// and at GOMAXPROCS 1 and 4: predictions agree bit for bit.
func TestTrainModelsMatchesSequential(t *testing.T) {
	s := syntheticSpace(3, 6)
	cfgs, res := trainingSet(s, 50, 2)
	xq, yq, xh, yh := BuildTrainingData(s, cfgs, res)
	for _, spec := range ml.Engines() {
		qor, hw := spec.New(7), spec.New(8)
		if err := qor.Fit(xq, yq); err != nil {
			t.Fatal(err)
		}
		if err := hw.Fit(xh, yh); err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 4} {
			var m *Models
			var err error
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
				m, err = TrainModels(spec, 7, s, cfgs, res)
			}()
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", spec.Name, p, err)
			}
			for i := range xq {
				if math.Float64bits(m.QoR.Predict(xq[i])) != math.Float64bits(qor.Predict(xq[i])) ||
					math.Float64bits(m.HW.Predict(xh[i])) != math.Float64bits(hw.Predict(xh[i])) {
					t.Fatalf("%s at GOMAXPROCS %d: row %d predicts differently from the sequential fits", spec.Name, p, i)
				}
			}
		}
	}
}

// panicky is a regressor whose Fit panics on the HW problem.
type panicky struct{ seed int64 }

func (r panicky) Fit(x [][]float64, y []float64) error {
	if r.seed%2 == 0 {
		panic("fit exploded")
	}
	return nil
}

func (panicky) Predict([]float64) float64 { return 0 }

// TestTrainModelsPanicBecomesError: a fit that panics on its goroutine is
// reported as that model's error instead of crashing the process, and no
// goroutine outlives the call.
func TestTrainModelsPanicBecomesError(t *testing.T) {
	s := syntheticSpace(3, 6)
	cfgs, res := trainingSet(s, 20, 3)
	spec := ml.EngineSpec{Name: "panicky", New: func(seed int64) ml.Regressor { return panicky{seed} }}
	base := runtime.NumGoroutine()
	for _, p := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
			_, err := TrainModels(spec, 1, s, cfgs, res) // seed 1: QoR fits, HW (seed 2) panics
			if err == nil || !strings.Contains(err.Error(), "HW model (panicky): panic: fit exploded") {
				t.Fatalf("GOMAXPROCS %d: err = %v, want the HW fit's panic", p, err)
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d after TrainModels, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
