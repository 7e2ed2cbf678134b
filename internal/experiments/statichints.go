package experiments

import (
	"slices"

	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/static"
	"repro/internal/workload"
)

// HintsBinary is the fourth hint mode: region hints recovered from the
// assembled binary by internal/static's abstract interpretation (as
// opposed to the source-level Figure 6 pass).
const HintsBinary HintMode = HintsCompiler + 1

// StaticHintRow compares, for one workload, the binary-level analyzer's
// hints against the source-level hints and the profile oracle: how many
// dynamic references each hint source covers, how often the fired hints
// are right, and the end-to-end 1BIT-HYBRID accuracy with each source.
type StaticHintRow struct {
	Name string

	// Coverage and accuracy of fired hints, % of dynamic references.
	BinaryCoveredPct float64
	BinaryAccPct     float64
	SourceCoveredPct float64
	SourceAccPct     float64

	// Disagreements counts binary hints that contradicted the dynamic
	// region — the soundness headline; it must be zero.
	Disagreements uint64

	// AnalyzerErrs counts error-severity diagnostics the analyzer
	// raised against the compiled program (also zero for sound codegen).
	AnalyzerErrs int

	// AccuracyPct is end-to-end 1BIT-HYBRID (unlimited table) accuracy
	// per hint mode.
	AccuracyPct map[HintMode]float64
}

// StaticHintModes orders the modes of the E14 study.
var StaticHintModes = []HintMode{HintsOff, HintsCompiler, HintsBinary, HintsOracle}

// StaticHintStudy runs E14: the binary-level static analyzer as a hint
// source for every workload, against the Fig. 6 source hints and the
// dynamic oracle.
func (r *Runner) StaticHintStudy() ([]StaticHintRow, error) {
	return forEach(r, r.staticHintPass)
}

func (r *Runner) staticHintPass(w *workload.Workload) (StaticHintRow, error) {
	row := StaticHintRow{Name: w.Name, AccuracyPct: map[HintMode]float64{}}
	p, err := r.Program(w)
	if err != nil {
		return row, err
	}
	pr, err := r.Profile(w)
	if err != nil {
		return row, err
	}
	an := static.Analyze(p)
	row.AnalyzerErrs = len(an.Errors())

	cls, err := staticHintClassifiers(p, pr.Oracle(), an.HintAt)
	if err != nil {
		return row, err
	}
	r.logf("static hint study %s ...", w.Name)
	err = r.classifyPass(w, cls, func(ev core.RefEvent) {
		if pred, usable := core.HintPrediction(an.HintAt(ev.Index)); usable && pred != ev.Actual {
			row.Disagreements++
		}
	})
	if err != nil {
		return row, err
	}

	mode := func(m HintMode) core.ClassifyStats { return cls[slices.Index(StaticHintModes, m)].Stats }
	bin, src := mode(HintsBinary), mode(HintsCompiler)
	if bin.Total > 0 {
		row.BinaryCoveredPct = 100 * float64(bin.HintCovered) / float64(bin.Total)
		row.SourceCoveredPct = 100 * float64(src.HintCovered) / float64(src.Total)
	}
	row.BinaryAccPct = bin.HintAccuracy()
	row.SourceAccPct = src.HintAccuracy()
	for i, m := range StaticHintModes {
		row.AccuracyPct[m] = cls[i].Stats.Accuracy()
	}
	return row, nil
}

// staticHintClassifiers builds the E14 classifiers of p, one
// 1BIT-HYBRID classifier on an unlimited table per StaticHintModes
// entry, in that order.
func staticHintClassifiers(p *prog.Program, oracle, binary core.HintSource) ([]*core.Classifier, error) {
	hints := map[HintMode]core.HintSource{HintsOracle: oracle, HintsCompiler: p.HintAt, HintsBinary: binary}
	cls := make([]*core.Classifier, len(StaticHintModes))
	for i, mode := range StaticHintModes {
		c, err := core.NewClassifier(core.ClassifierConfig{Scheme: core.Scheme1BitHybrid},
			core.WithHints(hints[mode]))
		if err != nil {
			return nil, err
		}
		cls[i] = c
	}
	return cls, nil
}
