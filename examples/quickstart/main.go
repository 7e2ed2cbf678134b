// Quickstart: compile a small MiniC program, run it, and watch the
// access region predictor classify its memory references — the paper's
// Figure 1 example brought to life.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/minicc"
	"repro/internal/vm"
)

// The program mirrors the paper's Figure 1: b[] lives on the heap, c[]
// in static data, *parm1 can point anywhere depending on the call site,
// and &a forces a local onto the stack.
const src = `
int c[64];
int result;

void foo(int *parm1) {
	int i;
	int a;
	int *b = malloc(64 * sizeof(int));
	for (i = 0; i < 64; i++) {
		b[i] = c[i] + *parm1;    // heap, data, and unknown accesses
	}
	a = b[63];
	result = result + a;         // data access
}

int main() {
	int local = 1;
	int j;
	for (j = 0; j < 10; j++) {
		foo(&local);   // from here *parm1 is a stack access
		foo(c);        // from here it is a data access
	}
	return result & 255;
}
`

func main() {
	p, err := minicc.Compile("figure1.c", src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled figure1.c: %d instructions, %d bytes of data\n\n",
		len(p.Text), len(p.Data))

	m, err := vm.New(vm.Config{Program: p, Out: os.Stdout})
	if err != nil {
		log.Fatal(err)
	}

	// The paper's pipeline classifier: addressing-mode rules plus a
	// 32K-entry hybrid-context ARPT.
	table, err := core.NewARPT(core.DefaultPipelineConfig())
	if err != nil {
		log.Fatal(err)
	}
	cls, err := core.NewClassifier(
		core.ClassifierConfig{Scheme: core.Scheme1BitHybrid}, core.WithTable(table))
	if err != nil {
		log.Fatal(err)
	}

	err = core.Trace(context.Background(), m, 0, func(ev core.RefEvent) {
		cls.Classify(ev)
	})
	if err != nil {
		log.Fatal(err)
	}

	st := cls.Stats
	fmt.Printf("program exited with %d\n\n", m.ExitCode())
	fmt.Printf("dynamic memory references:   %d\n", st.Total)
	fmt.Printf("  manifest in addressing:    %d (%.1f%%)\n",
		st.StaticCovered, st.StaticFraction())
	fmt.Printf("  resolved by the ARPT:      %d\n", st.TableLookups)
	fmt.Printf("classification accuracy:     %.2f%%\n", st.Accuracy())
	fmt.Printf("ARPT entries in use:         %d of %d (%d bytes)\n",
		table.Occupied(), table.Config().Entries, table.SizeBytes())
}
