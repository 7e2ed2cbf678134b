// Regionstudy: profile a pointer-chasing workload the way §3 of the
// paper profiles SPEC95 — per-instruction region sets (Figure 2
// classes), region traffic, and sliding-window occupancy (Table 2) —
// then show how the profile yields the §3.5.2 oracle hints.
//
// Run with: go run ./examples/regionstudy
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/minicc"
	"repro/internal/profile"
	"repro/internal/prog"
	"repro/internal/region"
)

// A linked-list workload: nodes on the heap, a lookup table in static
// data, and recursive traversal on the stack.
const src = `
int lengths[32];

int *newnode(int v, int *next) {
	int *n = malloc(2 * sizeof(int));
	n[0] = v;
	n[1] = (int)next;
	return n;
}

int walk(int *n) {
	if (n == 0) return 0;
	return n[0] + walk((int*)n[1]);
}

int main() {
	int total = 0;
	int it;
	for (it = 0; it < 200; it++) {
		int *head = 0;
		int i;
		int len = 5 + (it % 27);
		for (i = 0; i < len; i++) head = newnode(i, head);
		lengths[it % 32] = len;
		total += walk(head);
	}
	return total & 255;
}
`

func main() {
	p, err := minicc.Compile("chaser.c", src)
	if err != nil {
		log.Fatal(err)
	}
	pr, err := profile.Run(context.Background(), p, 0, nil)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("ran %d instructions (%.0f%% loads, %.0f%% stores), exit %d\n\n",
		pr.DynInsts, pr.LoadPct(), pr.StorePct(), pr.ExitCode)

	b := pr.Classes()
	fmt.Println("static memory instructions by region class (Figure 2 view):")
	for _, set := range region.AllClasses {
		if n := b.StaticByClass[set]; n > 0 {
			fmt.Printf("  %-6s %4d static, %8d dynamic\n", set.Class(), n, b.DynByClass[set])
		}
	}
	fmt.Printf("multi-region static instructions: %.1f%% (dynamic: %.1f%%)\n\n",
		b.MultiRegionStaticPct(), b.MultiRegionDynPct())

	fmt.Println("region traffic and window occupancy (Table 2 view):")
	for reg := 0; reg < region.Count; reg++ {
		w32 := &pr.Windows[0]
		fmt.Printf("  %-6s %8d refs   %5.2f (%.2f) per 32 instructions, bursty=%v\n",
			region.Region(reg), pr.RegionRefs[reg],
			w32.Mean(region.Region(reg)), w32.StdDev(region.Region(reg)),
			w32.StrictlyBursty(region.Region(reg)))
	}

	oracle := pr.Oracle()
	counts := map[prog.Hint]int{}
	for i := range p.Text {
		if p.Text[i].IsMem() {
			counts[oracle(i)]++
		}
	}
	fmt.Printf("\nprofile oracle (paper §3.5.2 'compiler information' upper bound):\n")
	fmt.Printf("  stack: %d, nonstack: %d, unknown: %d, never-executed: %d\n",
		counts[prog.HintStack], counts[prog.HintNonStack],
		counts[prog.HintUnknown], counts[prog.HintNone])
}
