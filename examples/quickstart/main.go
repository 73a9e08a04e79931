// Quickstart: run the complete autoAx methodology on the Sobel edge
// detector with a small generated library, and print the final Pareto
// front of approximate implementations.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"autoax"
)

func main() {
	// 1. A library of characterized approximate circuits for the three
	//    operation instances the Sobel detector uses (Table 1).
	lib, err := autoax.BuildLibrary([]autoax.LibrarySpec{
		{Op: autoax.OpAdd(8), Count: 60},
		{Op: autoax.OpAdd(9), Count: 60},
		{Op: autoax.OpSub(10), Count: 50},
	}, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("library: %d characterized circuits\n", lib.Size())

	// 2. Benchmark data: synthetic grayscale images with natural-image
	//    statistics (stand-in for the Berkeley segmentation dataset).
	images := autoax.BenchmarkImages(3, 64, 48, 7)

	// 3. The methodology: profile → reduce → learn models → explore →
	//    verify.  Budgets here are quickstart-sized; see DefaultConfig for
	//    paper-like settings.
	cfg := autoax.Config{
		TrainConfigs: 150,
		TestConfigs:  100,
		SearchEvals:  10000,
		Seed:         1,
	}
	pipe, err := autoax.NewPipeline(autoax.Sobel(), lib, images, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := pipe.RunContext(context.Background()); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("reduced space: %.3g configurations\n", pipe.Space.NumConfigs())
	fmt.Printf("model fidelity: QoR %.0f%%, hardware %.0f%%\n",
		100*pipe.QoRFidelity, 100*pipe.HWFidelity)
	fmt.Printf("pseudo Pareto: %d configurations, final front: %d\n\n",
		pipe.Pseudo.Len(), len(pipe.FinalFront))

	_, results := pipe.FrontResults()
	fmt.Println("final Pareto front (quality ↔ hardware cost):")
	fmt.Println("  SSIM     area(µm²)  energy(fJ/px)")
	for _, r := range results {
		fmt.Printf("  %.5f  %9.1f  %12.1f\n", r.SSIM, r.Area, r.Energy)
	}
}
