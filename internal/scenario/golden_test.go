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

// TestGoldenFingerprints pins each config's gob fingerprint twice: whole,
// and with NetStats.EventsProcessed zeroed. A change that only alters how
// many simulator events run (a timer that fires and does nothing, say)
// moves the first digest and keeps the second; one that moves the second
// changed what the protocol did.
func TestGoldenFingerprints(t *testing.T) {
	cases := []struct {
		name   string
		cfg    func() Config
		want   string
		masked string // the fingerprint with NetStats.EventsProcessed zeroed
	}{
		{"standard", func() Config { c := deterministicBase(41); c.Protocol = StandardGossip; return c }, "77655fd683c10424fa87de2193361aba2f5f71426702c0a564bfda5bfaa13b10", "fc0f25fd3bb3ff59b72bb8e2f8b21ef915958902490c45cb396f3cb687853f10"},
		{"heap", func() Config { return deterministicBase(41) }, "b7f4bdce64e4a08057d942651b662af5805a5b01903957350c0d19278e40e762", "cfd9ca7fc68a8cd187b670dcd14e78e3e0c347d23c2e017d3df9c1cc5ad477f4"},
		{"dynamics", func() Config {
			cfg := LargeScaleBase(150, 7)
			cfg.Windows = 2
			cfg.Drain = 15 * time.Second
			cfg.JoinWaves = []JoinWave{{At: 6 * time.Second, Count: 30}}
			cfg.ChurnBursts = []ChurnBurst{{At: 8 * time.Second, Fraction: 0.1}}
			return cfg
		}, "38c2fc6eda7d6ae46d15f56589d45e3bfc4c02101de7e01ff90939c56eb94594", "818cfb59caaf63daa5bfb44b1485d301d1dd504dd8bb1648b89d0f7a7053160d"},
		{"netem", func() Config {
			cfg := deterministicBase(19)
			p, err := netem.Profile("captrace")
			if err != nil {
				t.Fatal(err)
			}
			cfg.Netem = &p
			return cfg
		}, "0129dc9c66c14757618576590855eda7c53eca21f67d571bf0a625193c3c83b2", "dfc7e2fd6478b7117908f8a0c354042957d128616e5e1b013ebeef15429df162"},
		{"adapt", func() Config { return adaptBase(47) }, "65a5cce102df2a5d0eb2376a04b86e2f4a91d68c99cbb0d5ba1cd5a5a7152fbe", "e9daa760a2657022e85622d2b95826f94374b8a579b5575b2cfb54f923162a63"},
		{"adversary", func() Config { return adversaryDetBase(59) }, "6585b21a1e4d4202de2d507f3252267fa6355e68e51532ca33f5daa37ec276d1", "d559450cc0e67061304dcd6b6499c5becd140b561950ea60713129e64535696d"},
		{"trace", func() Config { return traceBase(67) }, "19391d9803e3fbbe60d9a4be37c98f3a46e997daea9f2c1f14472affc7834b8e", "1e655d611deb4a3652f27490afb9da028e4a205695dcdc685d54c0d2e59340c2"},
		{"multisource", func() Config { return multiSourceBase(43) }, "6b118b8c66fd7c4769cd81f79472ebc7d21d0f752eac616b047a590e9b9ee14e", "ab7e3d485223212eaade2915d485a729c68dabe6df0838f4817fcb1dbdf075fd"},
		{"topology", func() Config { return topologyBase(73) }, "99fe9ad53bb8f4ab32d5f1b505b29ffd2d0e92668652c2836342db062e37411c", "7f7df2e6dac213811a77fd6e03387560a485dad44546bc6874d404e6c71f6156"},
		{"autofanout", func() Config { c := deterministicBase(41); c.AutoFanout = true; return c }, "839189f930e1a7b1bf9de12897d0f60a29e55d3cd1e1fa48b6db8e3f317ebb9c", "6065ef1a8ea48e16f26755e6e011e68f9a44a57e7703112e84bd49bb829f9c3f"},
		{"tree", func() Config { c := deterministicBase(41); c.Protocol = StaticTree; return c }, "f72644e0f35b516aac803d7f839a80c52103a0c0780313db56036af92915c680", "02db954d9b7a0c1365cb2cdb5c6a6ae82a8c1d738eba81d9ae3ba9b56c5d3190"},
		{"unconstrained", func() Config { c := deterministicBase(41); c.Unconstrained = true; return c }, "e8a1cd2aaf9431025afb39caaf43e7957e907cfcff76a283e990a31b51466d69", "b3249c45ed6d0dba21fed0e5bacf12fecf97bcb786f4a670d2f7da53c257a519"},
		{"adversary-topology", func() Config {
			c := adversaryDetBase(59)
			t := topologyBase(0)
			c.Topology, c.FanoutIntra, c.FanoutInter = t.Topology, t.FanoutIntra, t.FanoutInter
			return c
		}, "27c9dee254e7a11aa20241d070956aaa7491aba39b7b34328b8c5ceeaeba650c", "129941da4e6a895bf18de1ef15eb255a743bc89219d1b62bfe3fcadceb0c93da"},
		{"sourcebias", func() Config { c := deterministicBase(41); c.SourceBias = true; return c }, "e16a36220b245f8644b837cbf5757cf8a9406d630506c621fbb9ad505b4ef1d6", "7a40e2e1a6db3088f58fac35262fe3a26621a03d28aecdc20547967c623a4692"},
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
			res.NetStats.EventsProcessed = 0
			sum = sha256.Sum256(fingerprint(t, res))
			if got := hex.EncodeToString(sum[:]); got != tc.masked {
				t.Errorf("fingerprint without EventsProcessed sha256 = %s, want %s", got, tc.masked)
			}
		})
	}
}
