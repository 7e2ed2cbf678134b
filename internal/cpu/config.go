package cpu

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cache"
)

// Latencies follow the MIPS R10000 as Table 4 specifies.
const (
	LatIntALU = 1
	LatIntMul = 6
	LatIntDiv = 35
	LatFPALU  = 2
	LatFPMul  = 2
	LatFPDiv  = 12
	LatL2     = 12 // L2 hit
	LatMem    = 50 // main memory
)

// Config is one machine configuration. The paper's (N+M) notation maps
// to an N-ported L1 partition plus an M-ported LVC partition; M=0 is a
// conventional single-pipeline memory system.
//
// The first-level cache is described solely by the Partitions +
// SteerPolicy surface (the legacy L1Ports/L1Latency/LVCPorts/LVCLatency
// fields were removed after their one-PR compatibility window). Build
// configs through Conventional, Decoupled or Custom rather than filling
// Partitions by hand.
type Config struct {
	Name string

	IssueWidth int // also decode and commit width (Table 4)
	ROBSize    int
	LSQSize    int
	LVAQSize   int // 0 disables the LVAQ (conventional design)

	// Partitions lists the first-level cache partitions explicitly
	// (per-partition size/assoc/line/ports/latency); SteerPolicy names
	// the cache steering policy that routes accesses between them
	// ("" defaults to region when there are two or more partitions,
	// none otherwise).
	Partitions  []cache.PartitionConfig
	SteerPolicy string

	IntALU            int
	FPALU             int
	IntMulDiv         int
	FPMulDiv          int
	MispredictPenalty int  // extra cycles after an ARPT steering miss
	FastForward       bool // LVAQ offset-based store-to-load fast forwarding
}

// String returns the canonical configuration name — "(3+3)",
// "(2+0,3cyc)", "(3+3,lvc8K,pen4)". The name is the identity used by
// store keys and the arld grid shorthand; ParseConfigName in
// internal/service inverts it.
func (c Config) String() string { return c.Name }

// Key returns a full-field rendering of the configuration for memo
// and store keys: unlike Name it distinguishes configs that differ in
// any field. Its bytes are exactly fmt's %+v of the struct without its
// String method, under which every store and journal key was written;
// a test holds the two renderings equal, and fails when a field of
// Config or cache.PartitionConfig is added until Key renders it.
func (c Config) Key() string {
	b := make([]byte, 0, 320)
	b = append(b, "{Name:"...)
	b = append(b, c.Name...)
	b = appendField(b, " IssueWidth:", c.IssueWidth)
	b = appendField(b, " ROBSize:", c.ROBSize)
	b = appendField(b, " LSQSize:", c.LSQSize)
	b = appendField(b, " LVAQSize:", c.LVAQSize)
	b = append(b, " Partitions:["...)
	for i, p := range c.Partitions {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, "{Name:"...)
		b = append(b, p.Name...)
		b = appendField(b, " SizeBytes:", p.SizeBytes)
		b = appendField(b, " LineBytes:", p.LineBytes)
		b = appendField(b, " Assoc:", p.Assoc)
		b = appendField(b, " HitLatency:", p.HitLatency)
		b = appendField(b, " Ports:", p.Ports)
		b = append(b, '}')
	}
	b = append(b, "] SteerPolicy:"...)
	b = append(b, c.SteerPolicy...)
	b = appendField(b, " IntALU:", c.IntALU)
	b = appendField(b, " FPALU:", c.FPALU)
	b = appendField(b, " IntMulDiv:", c.IntMulDiv)
	b = appendField(b, " FPMulDiv:", c.FPMulDiv)
	b = appendField(b, " MispredictPenalty:", c.MispredictPenalty)
	b = append(b, " FastForward:"...)
	b = strconv.AppendBool(b, c.FastForward)
	b = append(b, '}')
	return string(b)
}

// appendField appends one integer field of Key's rendering.
func appendField(b []byte, name string, v int) []byte {
	return strconv.AppendInt(append(b, name...), int64(v), 10)
}

// Decoupled reports whether the configuration runs two memory
// pipelines.
func (c Config) Decoupled() bool { return c.LVAQSize > 0 }

// partitions returns the first-level partition list and steering
// policy without validating them, defaulting the policy by partition
// count (region for split hierarchies, none for a unified cache).
func (c Config) partitions() ([]cache.PartitionConfig, string) {
	parts := append([]cache.PartitionConfig(nil), c.Partitions...)
	policy := c.SteerPolicy
	if policy == "" {
		if len(parts) > 1 {
			policy = cache.SteerRegion
		} else {
			policy = cache.SteerNone
		}
	}
	return parts, policy
}

// ResolvePartitions resolves the configuration's first-level cache to
// an explicit, validated partition list plus steering policy.
func (c Config) ResolvePartitions() ([]cache.PartitionConfig, string, error) {
	parts, policy := c.partitions()
	if len(parts) == 0 {
		return nil, "", fmt.Errorf("no first-level cache partitions")
	}
	for i, p := range parts {
		if err := p.Validate(); err != nil {
			return nil, "", fmt.Errorf("partition %d: %w", i, err)
		}
	}
	if _, err := cache.ParsePolicy(policy, len(parts)); err != nil {
		return nil, "", err
	}
	return parts, policy, nil
}

// Validate checks structural sanity.
func (c Config) Validate() error {
	if c.IssueWidth <= 0 || c.ROBSize <= 0 || c.LSQSize <= 0 {
		return fmt.Errorf("cpu config %q: non-positive core sizes", c.Name)
	}
	if _, _, err := c.ResolvePartitions(); err != nil {
		return fmt.Errorf("cpu config %q: %w", c.Name, err)
	}
	if c.IntALU <= 0 || c.FPALU <= 0 || c.IntMulDiv <= 0 || c.FPMulDiv <= 0 {
		return fmt.Errorf("cpu config %q: non-positive FU counts", c.Name)
	}
	if c.MispredictPenalty < 0 {
		return fmt.Errorf("cpu config %q: negative mispredict penalty %d", c.Name, c.MispredictPenalty)
	}
	return nil
}

// baseTable4 is the fixed part of the Table 4 machine.
func baseTable4(name string) Config {
	return Config{
		Name:       name,
		IssueWidth: 16,
		ROBSize:    256,
		IntALU:     16, FPALU: 16, IntMulDiv: 4, FPMulDiv: 4,
		MispredictPenalty: 1,
	}
}

// Conventional builds an (N+0) configuration: a single LSQ (128
// entries) in front of an N-ported L1 with the given hit latency.
func Conventional(ports, latency int) Config {
	c := baseTable4(fmt.Sprintf("(%d+0)", ports))
	if latency != 2 {
		c.Name = fmt.Sprintf("(%d+0,%dcyc)", ports, latency)
	}
	c.LSQSize = 128
	c.Partitions = []cache.PartitionConfig{cache.L1Config(ports, latency)}
	return c
}

// Decoupled builds an (N+M) configuration: LSQ/LVAQ of 96 entries each
// (§4.3), a region-steered split of an N-ported 2-cycle L1 and an
// M-ported 1-cycle LVC, with fast forwarding enabled in the LVAQ.
func Decoupled(l1Ports, lvcPorts int) Config {
	c := baseTable4(fmt.Sprintf("(%d+%d)", l1Ports, lvcPorts))
	c.LSQSize = 96
	c.LVAQSize = 96
	c.Partitions = []cache.PartitionConfig{
		cache.L1Config(l1Ports, 2), cache.LVCConfig(lvcPorts)}
	c.FastForward = true
	return c
}

// WithPenalty returns the configuration with the given ARPT steering
// mispredict penalty, renaming it canonically: the ",penP" token is
// appended (always last) when P differs from the Table 4 default of 1,
// and stripped when P == 1, so "(3+3)".WithPenalty(4) is
// "(3+3,pen4)" and back.
func (c Config) WithPenalty(pen int) Config {
	name := strings.TrimSuffix(c.Name, ")")
	if i := strings.LastIndex(name, ",pen"); i >= 0 {
		name = name[:i]
	}
	if pen != 1 {
		name += fmt.Sprintf(",pen%d", pen)
	}
	c.Name = name + ")"
	c.MispredictPenalty = pen
	return c
}

// CustomParams parameterizes Custom. Zero values mean the Table 4
// defaults: L1Latency 2, LVCSizeKB 4, Steer region (decoupled) or none
// (conventional). A nil Penalty means the default of 1 cycle; a zero
// penalty is a machine of its own. LVCPorts 0 selects the conventional
// single-pipeline machine.
type CustomParams struct {
	L1Ports   int
	L1Latency int    // 0 means 2 cycles
	LVCPorts  int    // 0 means conventional (no LVC)
	LVCSizeKB int    // 0 means 4 KB
	Steer     string // "" means region when decoupled, none when conventional
	Penalty   *int   // nil means 1 cycle

	// ARPTEntries is carried by the explorer's grid, not by Config:
	// the steering predictor is a front-end table sized at trace time.
	// It lives here so one params struct names a full design point.
	ARPTEntries int
}

// Custom builds a configuration for an arbitrary design point and
// names it canonically: "(N+M[,Lcyc][,lvcSK][,<policy>][,penP])" with
// segments emitted only when they differ from the Table 4 defaults.
// Non-canonical combinations — an LVC dimension or a splitting policy
// on a conventional machine — are rejected rather than silently
// collapsed, so every name denotes exactly one machine.
func Custom(p CustomParams) (Config, error) {
	lat := p.L1Latency
	if lat == 0 {
		lat = 2
	}
	kb := p.LVCSizeKB
	if kb == 0 {
		kb = 4
	}
	pen := 1
	if p.Penalty != nil {
		pen = *p.Penalty
	}
	if p.L1Ports <= 0 {
		return Config{}, fmt.Errorf("cpu: custom config with %d L1 ports", p.L1Ports)
	}
	if p.LVCPorts < 0 {
		return Config{}, fmt.Errorf("cpu: custom config with %d LVC ports", p.LVCPorts)
	}

	if p.LVCPorts == 0 {
		if p.Steer != "" && p.Steer != cache.SteerNone {
			return Config{}, fmt.Errorf("cpu: %s steering needs an LVC partition", p.Steer)
		}
		if p.LVCSizeKB != 0 && p.LVCSizeKB != 4 {
			return Config{}, fmt.Errorf("cpu: LVC size on a conventional (%d+0) config", p.L1Ports)
		}
		if pen != 1 {
			return Config{}, fmt.Errorf("cpu: steering penalty on a conventional (%d+0) config", p.L1Ports)
		}
		return Conventional(p.L1Ports, lat), nil
	}

	switch p.Steer {
	case "", cache.SteerRegion, cache.SteerPattern, cache.SteerPCHash, cache.SteerNone:
	default:
		return Config{}, fmt.Errorf("cpu: unknown steering policy %q", p.Steer)
	}
	c := Decoupled(p.L1Ports, p.LVCPorts)
	lvc := cache.LVCConfig(p.LVCPorts)
	lvc.SizeBytes = kb << 10
	c.Partitions = []cache.PartitionConfig{cache.L1Config(p.L1Ports, lat), lvc}
	name := fmt.Sprintf("(%d+%d", p.L1Ports, p.LVCPorts)
	if lat != 2 {
		name += fmt.Sprintf(",%dcyc", lat)
	}
	if kb != 4 {
		name += fmt.Sprintf(",lvc%dK", kb)
	}
	if p.Steer != "" && p.Steer != cache.SteerRegion {
		name += "," + p.Steer
		c.SteerPolicy = p.Steer
	}
	c.Name = name + ")"
	c = c.WithPenalty(pen)
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// Figure8Configs returns the configurations of the paper's Figure 8 in
// presentation order: (2+0) baseline, (3+0) at 2 and 3 cycles, (4+0) at
// 3 cycles, the decoupled (2+2), (2+3), (3+3), and the (16+0)
// upper bound.
func Figure8Configs() []Config {
	return []Config{
		Conventional(2, 2),
		Conventional(3, 2),
		Conventional(3, 3),
		Conventional(4, 3),
		Decoupled(2, 2),
		Decoupled(2, 3),
		Decoupled(3, 3),
		Conventional(16, 2),
	}
}
