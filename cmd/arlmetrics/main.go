// Command arlmetrics validates and summarizes the schema'd JSON
// artifacts the other arl* commands write: per-run metrics artifacts
// (results/*.metrics.json, schema arl-metrics/v1) and ranked frontier
// artifacts from arlexplore (schema arl-frontier/v1). The artifact
// kind is dispatched on the document's "schema" field. Scripts use it
// to assert that every artifact parses against its embedded JSON schema;
// -schema prints the metrics schema for external tooling.
//
// Usage:
//
//	arlmetrics file.json [file.json ...]
//	arlmetrics -schema
//
// The exit status is 1 if any artifact fails validation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/cliutil"
	"repro/internal/explore"
	"repro/internal/obs"
)

func main() {
	c := cliutil.New("arlmetrics")
	schema := flag.Bool("schema", false, "print the embedded metrics artifact schema and exit")
	quiet := flag.Bool("q", false, "suppress per-file summaries")
	flag.Parse()

	if *schema {
		os.Stdout.Write(obs.MetricsSchemaJSON())
		return
	}
	if flag.NArg() == 0 {
		c.Fatalf("usage: arlmetrics file.json [file.json ...] | arlmetrics -schema")
	}

	ok := true
	for _, path := range flag.Args() {
		if err := validate(path, *quiet); err != nil {
			fmt.Fprintf(os.Stderr, "arlmetrics: %s: %v\n", path, err)
			ok = false
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func validate(path string, quiet bool) error {
	doc, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	// Dispatch on the artifact's self-declared schema so one command
	// checks every artifact kind the repo mints.
	var head struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(doc, &head); err != nil {
		return err
	}
	if head.Schema == explore.FrontierSchema {
		return validateFrontier(path, doc, quiet)
	}
	if err := obs.ValidateMetrics(doc); err != nil {
		return err
	}
	// Schema-valid by construction from here on; decode for the summary.
	var a obs.Artifact
	if err := json.Unmarshal(doc, &a); err != nil {
		return err
	}
	if !quiet {
		fmt.Printf("%s: ok (%s, cmd %q, go %s, %.1fs wall, %d metrics)\n",
			path, a.Schema, a.Run.Cmd, a.Run.GoVersion, a.Run.WallSeconds, len(a.Metrics))
	}
	return nil
}

func validateFrontier(path string, doc []byte, quiet bool) error {
	if err := explore.ValidateFrontier(doc); err != nil {
		return err
	}
	var f explore.Frontier
	if err := json.Unmarshal(doc, &f); err != nil {
		return err
	}
	if !quiet {
		pareto := 0
		for _, p := range f.Points {
			if p.Pareto {
				pareto++
			}
		}
		fmt.Printf("%s: ok (%s, %d points, %d pareto, %d workloads, seed %d)\n",
			path, f.Schema, len(f.Points), pareto, len(f.Workloads), f.Seed)
	}
	return nil
}
