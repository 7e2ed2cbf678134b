// Compilerhints: show the paper's Figure 6 classify_mem algorithm at
// work. The MiniC compiler's points-to analysis tags every memory
// instruction stack / nonstack / unknown; this example compares those
// real static hints against the profile oracle the paper used, and
// measures how much each helps a tiny 1K-entry ARPT (the Figure 5
// effect).
//
// Run with: go run ./examples/compilerhints
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/minicc"
	"repro/internal/profile"
	"repro/internal/vm"
)

// A program full of pointer parameters: the compiler must answer
// "unknown" for them (the paper's *parm1 case), while globals and
// locals classify statically. sum() is called on data, heap, and stack
// arrays alternately, so its loads genuinely alternate regions.
const src = `
int table[128];
int acc;

int sum(int *v, int n) {
	int s = 0;
	int i;
	for (i = 0; i < n; i++) s += v[i];   // unknown to the compiler
	return s;
}

void fill(int *v, int n, int seed) {
	int i;
	for (i = 0; i < n; i++) v[i] = seed + i;  // unknown to the compiler
}

int main() {
	int stackbuf[128];
	int *heapbuf = malloc(128 * sizeof(int));
	int it;
	for (it = 0; it < 400; it++) {
		fill(table, 128, it);
		fill(stackbuf, 128, it * 3);
		fill(heapbuf, 128, it * 7);
		acc += sum(table, 128) + sum(stackbuf, 128) + sum(heapbuf, 128);
	}
	return acc & 255;
}
`

func main() {
	const name = "hints.c"
	p, err := minicc.Compile(name, src)
	if err != nil {
		log.Fatal(err)
	}

	// Static hints straight out of the compiler.
	asmText, err := minicc.CompileToAsm(name, src)
	if err != nil {
		log.Fatal(err)
	}
	counts := map[string]int{}
	for _, line := range strings.Split(asmText, "\n") {
		if i := strings.Index(line, ";@"); i >= 0 {
			counts[line[i+2:]]++
		}
	}
	fmt.Printf("%s: compiler (Figure 6) hints on memory instructions:\n", name)
	for _, k := range []string{"stack", "nonstack", "unknown"} {
		fmt.Printf("  %-9s %d\n", k, counts[k])
	}

	// The profile oracle (the paper's idealized compiler information).
	pr, err := profile.Run(context.Background(), p, 0, nil)
	if err != nil {
		log.Fatal(err)
	}
	oracle := pr.Oracle()

	// Evaluate a deliberately tiny ARPT with no hints, compiler hints,
	// and oracle hints.
	mk := func(hints core.HintSource) *core.Classifier {
		c, err := core.NewClassifier(
			core.ClassifierConfig{Scheme: core.Scheme1BitHybrid, Entries: 64},
			core.WithHints(hints))
		if err != nil {
			log.Fatal(err)
		}
		return c
	}
	none, compiler, oracleC := mk(nil), mk(p.HintAt), mk(oracle)

	m, err := vm.New(vm.Config{Program: p})
	if err != nil {
		log.Fatal(err)
	}
	err = core.Trace(context.Background(), m, 0, func(ev core.RefEvent) {
		none.Classify(ev)
		compiler.Classify(ev)
		oracleC.Classify(ev)
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ntiny 64-entry ARPT accuracy over %d references:\n", none.Stats.Total)
	fmt.Printf("  no hints:        %.3f%%\n", none.Stats.Accuracy())
	fmt.Printf("  compiler hints:  %.3f%%  (%d refs bypass the table)\n",
		compiler.Stats.Accuracy(), compiler.Stats.HintCovered)
	fmt.Printf("  oracle hints:    %.3f%%  (%d refs bypass the table)\n",
		oracleC.Stats.Accuracy(), oracleC.Stats.HintCovered)
	fmt.Println("\nHints relieve pressure on a small ARPT (the paper's Figure 5):")
	fmt.Println("tagged references never occupy entries, so fewer collide.")
}
