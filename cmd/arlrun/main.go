// Command arlrun executes a MiniC (.c) or RISA assembly (.s) program on
// the functional simulator and reports its exit code and run statistics.
//
// Usage:
//
//	arlrun [-n maxInsts] [-v] file.{c,s}
//	arlrun -workload 130.li [-scale N]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/asm"
	"repro/internal/cliutil"
	"repro/internal/minicc"
	"repro/internal/prog"
	"repro/internal/vm"
	"repro/internal/workload"
)

func main() {
	c := cliutil.New("arlrun")
	maxInsts := flag.Uint64("n", 0, "instruction budget (0 = default)")
	verbose := flag.Bool("v", false, "print per-region reference counts")
	wl := flag.String("workload", "", "run a built-in workload")
	scale := flag.Int("scale", 0, "workload scale (0 = default)")
	c.ObsFlags("")
	flag.Parse()
	c.Start()
	defer c.Finish(nil)

	p, err := load(*wl, *scale)
	if err != nil {
		c.Fatalf("%v", err)
	}
	m, err := vm.New(vm.Config{Program: p, Out: os.Stdout})
	if err != nil {
		c.Fatalf("%v", err)
	}
	var regions [3]uint64
	err = m.Run(context.Background(), *maxInsts, func(ev vm.Event) {
		if ev.Inst.IsMem() {
			regions[ev.Region]++
		}
	})
	if err != nil {
		c.Fatalf("%v", err)
	}
	if !m.Halted() {
		c.Fatalf("instruction budget exhausted after %d instructions (pc=%#08x)", m.Seq(), m.PC())
	}
	fmt.Printf("\n[%s: exit %d after %d instructions]\n", p.Name, m.ExitCode(), m.Seq())
	if *verbose {
		total := regions[0] + regions[1] + regions[2]
		fmt.Printf("memory references: %d (data %d, heap %d, stack %d)\n",
			total, regions[0], regions[1], regions[2])
	}
}

func load(wl string, scale int) (*prog.Program, error) {
	if wl != "" {
		w, ok := workload.ByName(wl)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", wl)
		}
		return w.Compile(scale)
	}
	if flag.NArg() != 1 {
		return nil, fmt.Errorf("usage: arlrun [flags] file.{c,s} | arlrun -workload NAME")
	}
	path := flag.Arg(0)
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(path, ".s") {
		return asm.Assemble(path, string(b))
	}
	return minicc.Compile(path, string(b))
}
