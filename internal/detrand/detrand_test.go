package detrand_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/detrand"
	"repro/internal/explore"
	"repro/internal/faultinject"
	"repro/internal/resilience"
	"repro/internal/resilience/chaosnet"
	"repro/internal/store/faultfs"
)

// pinned holds, per seed, what each consumer of the seeded stream
// produced before the stream moved into this package: both ordinal
// fault-plan expansions, the retry backoff delays, a faultinject plan,
// Mix, and the explorer's sampled grid. The values were recorded from
// the package-local copies this package replaced; any drift here would
// silently change a chaos plan, a retry schedule or a sampled frontier.
// The faultfs column was re-derived once, when faultfs dropped its
// rename kind, which no store or journal path could fire: the plans
// keep their ordinals and redraw each kind from five instead of six.
var pinned = []struct {
	seed                           uint64
	faultfs, chaosnet, faultinject string
	backoff, mix, explore          string
	dropped                        int
}{
	{seed: 0x0,
		faultfs:     "write-eio@op52 read-eio@op44 write-enospc@op42 sync-fail@op60 read-eio@op38",
		chaosnet:    "truncate@op20 truncate@op4 truncate@op10 reset@op20 truncate@op30",
		faultinject: "mem-fault@seq30700 mem-fault@seq92444 port-drop@grant2090 force-mispredict@ref26940 force-mispredict@ref20390 port-drop@grant4726",
		backoff:     "863 1373 3478 7679 13342 12370",
		mix:         "0x6e789e6aa1b965f4 0x6c45d188009454f 0xf88bb8a8724c81ec 0x1b39896a51a8749b",
		explore:     "(1+2) (2+0) (2+1,lvc2K) (3+0) (4+2)", dropped: 15},
	{seed: 0x1,
		faultfs:     "write-eio@op39 write-eio@op11 short-write@op0 write-eio@op53 write-eio@op22",
		chaosnet:    "reset@op39 half-open@op35 reset@op8 reset@op13 latency@op30",
		faultinject: "force-mispredict@ref28519 latency-perturb@grant235(+58 cycles) force-mispredict@ref27045 table-bit-flip@ref36520(entry 1952540566) force-mispredict@ref23870 force-mispredict@ref16522",
		backoff:     "949 1861 3152 4218 13842 13805",
		mix:         "0xe99ff867dbf682c9 0xf893a2eefb32555e 0x6d1db36ccba982d2 0x71bb54d8d101b5b9",
		explore:     "(1+2,lvc2K) (2+2) (3+1) (3+2,lvc2K) (4+2)", dropped: 15},
	{seed: 0x7,
		faultfs:     "write-enospc@op28 short-write@op11 read-eio@op17 sync-fail@op62 write-eio@op41",
		chaosnet:    "truncate@op4 half-open@op3 half-open@op25 half-open@op22 reset@op25",
		faultinject: "table-bit-flip@ref35804(entry 3132172802) port-drop@grant3674 force-mispredict@ref31798 latency-perturb@grant7985(+42 cycles) port-drop@grant5516 latency-perturb@grant9344(+39 cycles)",
		backoff:     "567 1840 3767 6000 9700 9853",
		mix:         "0xec779c3693f88501 0x9cebe8a6d050dd01 0x28ceb6e1eddad0c2 0xb4a0472e578069ae",
		explore:     "(2+1,lvc2K) (2+1) (3+1,lvc2K) (3+1) (3+2)", dropped: 15},
	{seed: 0x9,
		faultfs:     "sync-fail@op34 sync-fail@op32 short-write@op62 sync-fail@op61 write-enospc@op51",
		chaosnet:    "latency@op26 half-open@op24 reset@op30 latency@op5 reset@op3",
		faultinject: "force-mispredict@ref35106 table-bit-flip@ref15584(entry 794331041) latency-perturb@grant4748(+62 cycles) port-drop@grant4083 force-mispredict@ref39897 latency-perturb@grant4572(+18 cycles)",
		backoff:     "861 1244 3276 5681 15595 10596",
		mix:         "0x44c3cd7f43c661c 0xe8313fe1d7350611 0x4c24fb756d56f0e4 0x4336b3782f5887a1",
		explore:     "(1+0) (1+1,lvc2K) (2+0) (2+1,lvc2K) (3+1,lvc2K)", dropped: 15},
	{seed: 0xdeadbeef,
		faultfs:     "write-enospc@op34 read-eio@op16 write-eio@op63 write-enospc@op26 write-enospc@op62",
		chaosnet:    "truncate@op34 reset@op24 latency@op15 truncate@op2 reset@op38",
		faultinject: "port-drop@grant3954 latency-perturb@grant8064(+29 cycles) mem-fault@seq50547 port-drop@grant3477 latency-perturb@grant5113(+61 cycles) port-drop@grant4197",
		backoff:     "767 1691 3818 5673 9345 15496",
		mix:         "0xe8cdc1bbdfed5d41 0xbec198114b7e9ed9 0xa7927fd9ee23e4d8 0x6a1d4d47a93c7e7a",
		explore:     "(1+1) (2+1,lvc2K) (2+2) (3+0) (4+1,lvc2K)", dropped: 15},
	{seed: 0x8000000000000000,
		faultfs:     "write-eio@op18 read-eio@op57 sync-fail@op63 write-enospc@op61 write-enospc@op48",
		chaosnet:    "truncate@op10 latency@op17 truncate@op15 truncate@op13 latency@op32",
		faultinject: "port-drop@grant8130 force-mispredict@ref1977 force-mispredict@ref31935 force-mispredict@ref20413 table-bit-flip@ref19632(entry 773136974) table-bit-flip@ref34597(entry 782069461)",
		backoff:     "956 1521 2989 5889 10500 11340",
		mix:         "0xc46fa638a6309012 0x61a685ffc80a8140 0x592e268383e356f9 0xc8881ee746884d3",
		explore:     "(1+0) (1+1) (1+2,lvc2K) (2+1) (3+0)", dropped: 15},
}

func join[T fmt.Stringer](xs []T) string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = x.String()
	}
	return strings.Join(out, " ")
}

func TestStreamsMatchRecordedOutputs(t *testing.T) {
	for _, p := range pinned {
		check := func(what, got, want string) {
			t.Helper()
			if got != want {
				t.Errorf("seed %#x %s:\n got %s\nwant %s", p.seed, what, got, want)
			}
		}
		check("faultfs plan", join(faultfs.NewPlan(p.seed, 5, 64).Faults), p.faultfs)
		check("chaosnet plan", join(chaosnet.NewPlan(p.seed, 5, 40).Faults), p.chaosnet)
		check("faultinject plan", join(faultinject.NewPlan(p.seed, 6,
			faultinject.RunShape{Insts: 100000, MemRefs: 40000}).Faults), p.faultinject)

		var delays []string
		resilience.Retry{
			Attempts: 7, Seed: p.seed, BaseDelay: time.Microsecond, MaxDelay: 16 * time.Microsecond,
			OnRetry: func(_ string, _ int, d time.Duration, _ error) {
				delays = append(delays, fmt.Sprint(int64(d)))
			},
		}.Do(context.Background(), "simulate|130.li", func(context.Context) error { return errors.New("fail") })
		check("retry backoff", strings.Join(delays, " "), p.backoff)

		var mixes []string
		for i := uint64(0); i < 4; i++ {
			mixes = append(mixes, fmt.Sprintf("%#x", detrand.Mix(p.seed, i)))
		}
		check("Mix", strings.Join(mixes, " "), p.mix)

		pts, dropped, err := explore.Grid{L1Ports: []int{1, 2, 3, 4}, LVCPorts: []int{0, 1, 2},
			LVCSizeKB: []int{2, 4}, MaxPoints: 5}.Enumerate(p.seed)
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, len(pts))
		for i, pt := range pts {
			names[i] = pt.Name
		}
		check("explore sample", strings.Join(names, " "), p.explore)
		if dropped != p.dropped {
			t.Errorf("seed %#x: explore dropped %d, want %d", p.seed, dropped, p.dropped)
		}
	}
}

// The ordinal plan grammar is shared by -store-faults and -net-faults:
// both reject the same malformed specs and name their own package.
func TestParsePlan(t *testing.T) {
	for _, bad := range []string{"", "7", "7:4", "x:4:64", "7:-1:64"} {
		if _, err := faultfs.ParsePlan(bad); err == nil || !strings.HasPrefix(err.Error(), "faultfs: ") {
			t.Errorf("faultfs.ParsePlan(%q) = %v, want a faultfs error", bad, err)
		}
		if _, err := chaosnet.ParsePlan(bad); err == nil || !strings.HasPrefix(err.Error(), "chaosnet: ") {
			t.Errorf("chaosnet.ParsePlan(%q) = %v, want a chaosnet error", bad, err)
		}
	}
	p, err := faultfs.ParsePlan("7:4:64")
	if err != nil || p.Seed != 7 || len(p.Faults) != 4 {
		t.Fatalf("faultfs.ParsePlan(7:4:64) = %+v, %v", p, err)
	}
	if got, want := join(p.Faults), join(faultfs.NewPlan(7, 4, 64).Faults); got != want {
		t.Fatalf("parsed plan %s, want %s", got, want)
	}
}
