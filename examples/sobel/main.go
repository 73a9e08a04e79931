// Sobel case study: the paper's §4.1 walk-through — profile the detector,
// reduce the library, compare learning engines by fidelity (Table 3
// style), then contrast the proposed hill-climbing search against random
// sampling at equal budgets (Table 4 style).
//
//	go run ./examples/sobel
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"sort"

	"autoax"
)

func main() {
	lib, err := autoax.BuildLibrary([]autoax.LibrarySpec{
		{Op: autoax.OpAdd(8), Count: 80},
		{Op: autoax.OpAdd(9), Count: 80},
		{Op: autoax.OpSub(10), Count: 60},
	}, 1)
	if err != nil {
		log.Fatal(err)
	}
	images := autoax.BenchmarkImages(3, 64, 48, 7)
	pipe, err := autoax.NewPipeline(autoax.Sobel(), lib, images, autoax.Config{
		TrainConfigs: 200, TestConfigs: 150, SearchEvals: 20000, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// Step 1 — library pre-processing.
	if err := pipe.ReduceContext(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("reduced libraries per operation:")
	for i, rl := range pipe.Space {
		id := pipe.App.Graph.OpNodes()[i]
		fmt.Printf("  %-5s (%s): %3d of %d circuits kept\n",
			pipe.App.Graph.Nodes[id].Name, pipe.App.Graph.Nodes[id].Op,
			len(rl), len(lib.For(pipe.App.Graph.Nodes[id].Op)))
	}

	// Step 2 — model construction; compare a few engines by fidelity.
	if err := pipe.GenerateSamplesContext(ctx); err != nil {
		log.Fatal(err)
	}
	xqTr, yqTr, _, _ := autoax.BuildTrainingData(pipe.Space, pipe.TrainCfgs, pipe.TrainRes)
	xqTe, yqTe, _, _ := autoax.BuildTrainingData(pipe.Space, pipe.TestCfgs, pipe.TestRes)
	type scored struct {
		name string
		fid  float64
	}
	var board []scored
	for _, name := range []string{"Random Forest", "Decision Tree", "Bayesian Ridge", "Stochastic Gradient Descent"} {
		spec, err := autoax.EngineByName(name)
		if err != nil {
			log.Fatal(err)
		}
		r := spec.New(1)
		if err := r.Fit(xqTr, yqTr); err != nil {
			log.Fatal(err)
		}
		board = append(board, scored{name, autoax.Fidelity(autoax.PredictAll(r, xqTe), yqTe)})
	}
	sort.Slice(board, func(i, j int) bool { return board[i].fid > board[j].fid })
	fmt.Println("\nSSIM-model test fidelity by engine:")
	for _, b := range board {
		fmt.Printf("  %-28s %.1f%%\n", b.name, 100*b.fid)
	}

	// Step 3 — model-based DSE: proposed vs random sampling.
	if err := pipe.TrainContext(ctx); err != nil {
		log.Fatal(err)
	}
	for _, budget := range []int{1000, 10000} {
		opt := autoax.SearchOptions{Evaluations: budget, Seed: 5}
		hc, err := autoax.RunSearchEngine(ctx, "hillclimb", pipe.Models, opt)
		if err != nil {
			log.Fatal(err)
		}
		rs, err := autoax.RunSearchEngine(ctx, "random", pipe.Models, opt)
		if err != nil {
			log.Fatal(err)
		}
		d := autoax.FrontDistances(rs.Points(), hc.Points())
		fmt.Printf("\nbudget %6d: proposed front %3d vs random front %3d (random sits %.4f avg away)\n",
			budget, hc.Len(), rs.Len(), d.ToAvg)
	}

	// Final precise verification of the explored front.
	if err := pipe.RunContext(ctx); err != nil {
		log.Fatal(err)
	}
	_, res := pipe.FrontResults()
	minS, maxS := res[0].SSIM, res[0].SSIM
	minA, maxA := res[0].Area, res[0].Area
	for _, r := range res {
		minS, maxS = math.Min(minS, r.SSIM), math.Max(maxS, r.SSIM)
		minA, maxA = math.Min(minA, r.Area), math.Max(maxA, r.Area)
	}
	fmt.Printf("\nfinal verified front: %d designs, SSIM %.4f…%.4f, area %.0f…%.0f µm²\n",
		len(res), minS, maxS, minA, maxA)
}
