// Command overheads regenerates Table II: the wall-clock cost of one
// decision quantum's scheduling work — the profiling windows (fixed by
// design), the three SGD reconstructions (a SIMD-lane pair beside a
// single, as the runtime runs them), and one parallel DDS search at the
// Fig. 6 parameters.
//
// Usage:
//
//	overheads [-seed 1] [-reps 5]
package main

import (
	"flag"
	"fmt"
	"os"

	"cuttlesys/experiments"
)

func main() {
	seed := flag.Uint64("seed", 1, "random seed")
	reps := flag.Int("reps", 5, "repetitions (best-of reported)")
	flag.Parse()

	best := experiments.TableIIOverheads(*seed)
	for i := 1; i < *reps; i++ {
		r := experiments.TableIIOverheads(*seed + uint64(i))
		if r.SGDSec < best.SGDSec {
			best.SGDSec = r.SGDSec
		}
		if r.DDSSec < best.DDSSec {
			best.DDSSec = r.DDSSec
		}
	}
	fmt.Println("Table II — characterisation and optimisation overheads:")
	experiments.WriteTableII(os.Stdout, best)
	_ = os.Stdout
}
