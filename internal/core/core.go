// Package core implements the paper's contribution: run-time access
// region prediction. It provides
//
//   - the static addressing-mode heuristics (§3.4.1's Static Prediction
//     rules 1-4): constant-addressed and $gp-based references are
//     non-stack, $sp/$fp-based references are stack, anything else is
//     predicted non-stack but not considered "covered";
//   - the Access Region Prediction Table (ARPT): an untagged table of
//     1-bit (or, for the paper's footnote-8 ablation, 2-bit) entries
//     indexed by PC bits XOR'ed with an optional run-time context built
//     from global branch history (GBH) and the caller identification
//     (CID, the link register value);
//   - a Classifier that composes compiler hints, the static rules, and
//     an ARPT exactly the way the paper's dispatch stage does, and keeps
//     the accounting behind Figures 4-5 and Table 3.
//
// The stack/non-stack split is binary, so predictions are reported as
// "is this reference a stack access?".
package core

import (
	"fmt"
	"sort"

	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/region"
)

// Prediction is a binary stack/non-stack prediction.
type Prediction bool

// The two prediction outcomes.
const (
	PredictNonStack Prediction = false
	PredictStack    Prediction = true
)

func (p Prediction) String() string {
	if p == PredictStack {
		return "stack"
	}
	return "nonstack"
}

// StaticPredict applies the paper's addressing-mode rules to a memory
// instruction. covered reports whether the addressing mode *manifests*
// the region (rules 1-3); when covered is false the returned prediction
// is rule 4's default (non-stack) and the instruction should consult
// the ARPT.
func StaticPredict(in isa.Inst) (pred Prediction, covered bool) {
	base, ok := in.BaseReg()
	if !ok {
		return PredictNonStack, false
	}
	switch base {
	case isa.Zero: // constant addressing: static data
		return PredictNonStack, true
	case isa.SP, isa.FP:
		return PredictStack, true
	case isa.GP:
		return PredictNonStack, true
	default:
		return PredictNonStack, false
	}
}

// Context carries the run-time context available at the fetch stage.
type Context struct {
	GBH uint32 // global branch history, most recent outcome in bit 0
	CID uint32 // caller identification: the link register ($ra) value
}

// UpdateGBH shifts a conditional-branch outcome into the history.
func (c *Context) UpdateGBH(taken bool) {
	c.GBH <<= 1
	if taken {
		c.GBH |= 1
	}
}

// Scheme selects a prediction scheme from §3.4.1.
type Scheme int

// The prediction schemes evaluated in Figure 4 (STATIC, 1BIT,
// 1BIT-GBH, 1BIT-CID, 1BIT-HYBRID) plus the 2-bit ablation the paper
// mentions in footnote 8.
const (
	SchemeStatic Scheme = iota
	Scheme1Bit
	Scheme1BitGBH
	Scheme1BitCID
	Scheme1BitHybrid
	Scheme2Bit
	Scheme2BitHybrid
)

var schemeNames = map[Scheme]string{
	SchemeStatic:     "STATIC",
	Scheme1Bit:       "1BIT",
	Scheme1BitGBH:    "1BIT-GBH",
	Scheme1BitCID:    "1BIT-CID",
	Scheme1BitHybrid: "1BIT-HYBRID",
	Scheme2Bit:       "2BIT",
	Scheme2BitHybrid: "2BIT-HYBRID",
}

func (s Scheme) String() string {
	if n, ok := schemeNames[s]; ok {
		return n
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// AllSchemes lists the Figure 4 schemes in presentation order.
var AllSchemes = []Scheme{
	SchemeStatic, Scheme1Bit, Scheme1BitGBH, Scheme1BitCID, Scheme1BitHybrid,
}

// Config parameterizes an ARPT.
type Config struct {
	// Entries is the table size (power of two). 0 means unlimited: the
	// table becomes an exact map, the configuration used for Figure 4
	// and Table 3.
	Entries int
	// Bits is the counter width per entry: 1 (paper default) or 2
	// (hysteresis ablation).
	Bits int
	// GBHBits and CIDBits select how many low-order bits of each
	// context source are folded into the index. The paper's hybrid uses
	// 8 GBH bits concatenated with 24 CID bits for the unlimited study
	// and 8 GBH + 7 CID bits for the 32K-entry pipeline configuration.
	GBHBits int
	CIDBits int
}

// DefaultPipelineConfig is the Table 4 machine's ARPT: 32K 1-bit
// entries, 8 bits of GBH and 7 bits of CID context.
func DefaultPipelineConfig() Config {
	return Config{Entries: 32 * 1024, Bits: 1, GBHBits: 8, CIDBits: 7}
}

// SchemeConfig builds the unlimited-table configuration used for the
// Figure 4 / Table 3 studies of a given scheme. SchemeStatic has no
// table and returns the zero Config.
func SchemeConfig(s Scheme) Config {
	switch s {
	case Scheme1Bit:
		return Config{Bits: 1}
	case Scheme1BitGBH:
		return Config{Bits: 1, GBHBits: 8}
	case Scheme1BitCID:
		return Config{Bits: 1, CIDBits: 24}
	case Scheme1BitHybrid:
		return Config{Bits: 1, GBHBits: 8, CIDBits: 24}
	case Scheme2Bit:
		return Config{Bits: 2}
	case Scheme2BitHybrid:
		return Config{Bits: 2, GBHBits: 8, CIDBits: 24}
	}
	return Config{}
}

func (c Config) Validate() error {
	if c.Bits != 1 && c.Bits != 2 {
		return fmt.Errorf("core: counter width must be 1 or 2 bits, got %d", c.Bits)
	}
	if c.Entries < 0 || (c.Entries != 0 && c.Entries&(c.Entries-1) != 0) {
		return fmt.Errorf("core: table entries must be 0 or a power of two, got %d", c.Entries)
	}
	if c.GBHBits < 0 || c.GBHBits > 32 || c.CIDBits < 0 || c.CIDBits > 32 {
		return fmt.Errorf("core: context bit widths out of range")
	}
	return nil
}

// ARPT is the access region prediction table. It is untagged and has no
// valid bits: a never-trained entry predicts non-stack (counter zero),
// which doubles as the cold-start answer the static rule 4 would give.
type ARPT struct {
	cfg   Config
	table []uint8          // fixed-size storage when Entries > 0
	spill map[uint32]uint8 // exact storage when unlimited

	// Index masks, fixed by cfg.
	gbhMask, cidMask, idxMask uint32

	// Occupancy of a sized table (Table 3): one bit per entry ever
	// trained, and how many are set. An unlimited table needs neither,
	// because every Update writes its spill map.
	trained  []uint64
	occupied int
}

// NewARPT builds a table from cfg; the configuration must validate.
func NewARPT(cfg Config) (*ARPT, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &ARPT{cfg: cfg, gbhMask: mask(cfg.GBHBits), cidMask: mask(cfg.CIDBits), idxMask: ^uint32(0)}
	if cfg.Entries > 0 {
		t.table = make([]uint8, cfg.Entries)
		t.trained = make([]uint64, (cfg.Entries+63)/64)
		t.idxMask = uint32(cfg.Entries - 1)
	} else {
		t.spill = make(map[uint32]uint8)
	}
	return t, nil
}

// Config reports the table's configuration.
func (t *ARPT) Config() Config { return t.cfg }

func mask(bits int) uint32 {
	if bits >= 32 {
		return ^uint32(0)
	}
	return (1 << bits) - 1
}

// Index computes the table index for a memory instruction at pc under
// ctx: the PC above its two always-zero low bits, XOR'ed with the
// concatenation of the low GBHBits of the history and the low CIDBits
// of the link register (also above its two zero bits).
func (t *ARPT) Index(pc uint32, ctx Context) uint32 {
	ctxBits := ctx.GBH&t.gbhMask | (ctx.CID>>2&t.cidMask)<<t.cfg.GBHBits
	return (pc>>2 ^ ctxBits) & t.idxMask
}

// decide turns an entry's counter into a prediction.
func (t *ARPT) decide(v uint8) Prediction {
	if t.cfg.Bits == 1 {
		return Prediction(v != 0)
	}
	return Prediction(v >= 2)
}

// Predict looks up the prediction for the instruction at pc.
func (t *ARPT) Predict(pc uint32, ctx Context) Prediction {
	idx := t.Index(pc, ctx)
	if t.table != nil {
		return t.decide(t.table[idx])
	}
	return t.decide(t.spill[idx])
}

// Update trains the entry with the actual outcome: direct overwrite for
// 1-bit entries, a saturating counter for 2-bit entries.
func (t *ARPT) Update(pc uint32, ctx Context, actual Prediction) {
	t.lookup(t.Index(pc, ctx), actual)
}

// lookup predicts from the entry at idx, then trains it with actual
// as Update does, reading the entry once: the Classifier's table path.
// An unlimited table skips the map write when the entry is trained
// and keeps its value, which a well-predicted reference usually does.
func (t *ARPT) lookup(idx uint32, actual Prediction) Prediction {
	if t.table != nil {
		old := t.table[idx]
		t.table[idx] = t.next(old, actual)
		if w, bit := idx/64, uint64(1)<<(idx%64); t.trained[w]&bit == 0 {
			t.trained[w] |= bit
			t.occupied++
		}
		return t.decide(old)
	}
	old, ok := t.spill[idx]
	if v := t.next(old, actual); !ok || v != old {
		t.spill[idx] = v
	}
	return t.decide(old)
}

// next is the counter an entry holding v moves to once it sees actual.
func (t *ARPT) next(v uint8, actual Prediction) uint8 {
	if t.cfg.Bits == 1 {
		if actual == PredictStack {
			return 1
		}
		return 0
	}
	if actual == PredictStack {
		return min(v+1, 3)
	}
	return max(v, 1) - 1
}

// Occupied reports how many distinct entries have been trained — the
// Table 3 metric.
func (t *ARPT) Occupied() int {
	if t.table == nil {
		return len(t.spill)
	}
	return t.occupied
}

// Flip inverts the prediction-deciding bit of one table entry — the
// soft-error model of the fault-injection engine. n selects the entry:
// modulo the table size for sized tables; for the unlimited (map)
// configuration it indexes the trained entries in ascending index
// order, since an entry that was never written has no physical storage
// to corrupt. It reports whether a stored bit actually flipped, which
// is false only for an unlimited table with no trained entries.
func (t *ARPT) Flip(n uint32) bool {
	// The decision bit: bit 0 for 1-bit entries, the >=2 threshold bit
	// for 2-bit saturating counters.
	bit := uint8(1)
	if t.cfg.Bits == 2 {
		bit = 2
	}
	if t.table != nil {
		idx := n % uint32(len(t.table))
		t.table[idx] ^= bit
		return true
	}
	if len(t.spill) == 0 {
		return false
	}
	keys := make([]uint32, 0, len(t.spill))
	for k := range t.spill {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	idx := keys[n%uint32(len(keys))]
	t.spill[idx] ^= bit
	return true
}

// SizeBytes reports the hardware cost of the table in bytes (0 for the
// unlimited study configuration).
func (t *ARPT) SizeBytes() int {
	if t.cfg.Entries == 0 {
		return 0
	}
	return t.cfg.Entries * t.cfg.Bits / 8
}

// ActualOf converts a runtime region into the binary training signal.
func ActualOf(r region.Region) Prediction {
	return Prediction(r.IsStack())
}

// HintPrediction converts a compiler hint to a usable prediction;
// usable is false for HintNone/HintUnknown.
func HintPrediction(h prog.Hint) (pred Prediction, usable bool) {
	switch h {
	case prog.HintStack:
		return PredictStack, true
	case prog.HintNonStack:
		return PredictNonStack, true
	}
	return PredictNonStack, false
}
