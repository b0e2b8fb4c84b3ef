package scenario

import (
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"io"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// gob numbers types process-wide in first-use order and writes those numbers
// into the stream, so fingerprint bytes depend on which test encoded what
// first. Encoding every fingerprinted type once, in a fixed order, before any
// test runs makes the bytes a function of the Result alone.
func init() {
	enc := gob.NewEncoder(io.Discard)
	for _, v := range []any{
		&metrics.Run{}, []uint32{}, []float64{}, []wire.NodeID{}, []simnet.NodeStats{},
		[]core.Stats{}, simnet.Stats{}, []netem.ModelStats{},
		&AdaptStats{}, &AdversaryStats{}, &TraceStats{}, &TopoStats{},
	} {
		if err := enc.Encode(v); err != nil {
			panic(err)
		}
	}
}

func TestGoldenFingerprints(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() Config
		want string
	}{
		{"standard", func() Config { c := deterministicBase(41); c.Protocol = StandardGossip; return c }, "0373baa1366bcce11c1599be83bec6f6d75dd78a7019e5c92d0639f027f69d7b"},
		{"heap", func() Config { return deterministicBase(41) }, "490dba476d3fb1cc073f1971d0942a424825a9951bcf52f5c1a7b3c648077797"},
		{"dynamics", func() Config {
			cfg := LargeScaleBase(150, 7)
			cfg.Windows = 2
			cfg.Drain = 15 * time.Second
			cfg.JoinWaves = []JoinWave{{At: 6 * time.Second, Count: 30}}
			cfg.ChurnBursts = []ChurnBurst{{At: 8 * time.Second, Fraction: 0.1}}
			return cfg
		}, "f406b724044bb9dd7527386bd1a6c7cec173cec9d5db1f71db4bdea2c401b411"},
		{"netem", func() Config {
			cfg := deterministicBase(19)
			p, err := netem.Profile("captrace")
			if err != nil {
				t.Fatal(err)
			}
			cfg.Netem = &p
			return cfg
		}, "467ce89bd97e8e1b0083b4588c5b73b6c1c1a8588df801e47f1406d98da61781"},
		{"adapt", func() Config { return adaptBase(47) }, "1c4745f4dee2c64462feb151c675a0901c3bd879f057a91e8326182bc977620a"},
		{"adversary", func() Config { return adversaryDetBase(59) }, "66711d5a9acc8d1e36f5102b4d34d45d5acc0d7fac8c09b7358335a9132c682a"},
		{"trace", func() Config { return traceBase(67) }, "50696b6b6c6acf03e021325c1d88d91c82f58469f0cca9eb472b6f1d80b272c6"},
		{"multisource", func() Config { return multiSourceBase(43) }, "53ba8184ad646aa022ad5311b4ad0530c0ae97d69ad483fe10a44d77cf8e7017"},
		{"topology", func() Config { return topologyBase(73) }, "84dce36d01ff6d917d9893daecd4e4d4b52a315cad47b4f07f50dc06205ccda0"},
		{"autofanout", func() Config { c := deterministicBase(41); c.AutoFanout = true; return c }, "19c9c94bd7266564b839f9d0acbbb06df0a1e8b57796128fb3d007e96498a510"},
		{"tree", func() Config { c := deterministicBase(41); c.Protocol = StaticTree; return c }, "75773fdb54b27a356632744e4f8fbbe373812861ff8ddde8e56ec37ac8f3e249"},
		{"unconstrained", func() Config { c := deterministicBase(41); c.Unconstrained = true; return c }, "cd42307feb4284f824f808d3f16a4fc3e4c93c0905561d1b7b19b61d4d3debd5"},
		{"adversary-topology", func() Config {
			c := adversaryDetBase(59)
			t := topologyBase(0)
			c.Topology, c.FanoutIntra, c.FanoutInter = t.Topology, t.FanoutIntra, t.FanoutInter
			return c
		}, "a2b219d1eae597f75f8b720287e19639cf3367b1727442f8d2033eed8d93b7d1"},
		{"sourcebias", func() Config { c := deterministicBase(41); c.SourceBias = true; return c }, "180a27a846a9a4139078f35fdf5bd75babbd53f1ed97afab9b89c294933430b0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.cfg())
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(fingerprint(t, res))
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("fingerprint sha256 = %s, want %s", got, tc.want)
			}
		})
	}
}
