package churn

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/membership"
	"repro/internal/simnet"
	"repro/internal/wire"
)

type idleHandler struct{}

func (idleHandler) Start(env.Runtime)                 {}
func (idleHandler) Receive(wire.NodeID, wire.Message) {}
func (idleHandler) Stop()                             {}

func buildNet(n int) (*simnet.Network, []*membership.View) {
	net := simnet.New(simnet.Config{Seed: 1})
	dir := membership.NewDirectory(n)
	views := make([]*membership.View, n)
	for i := 0; i < n; i++ {
		views[i] = dir.ViewFor(wire.NodeID(i))
		net.AddNode(idleHandler{}, simnet.NodeConfig{})
	}
	return net, views
}

func TestCatastrophicValidate(t *testing.T) {
	if err := (Catastrophic{Fraction: 1.0}).Validate(); err == nil {
		t.Error("fraction 1.0 accepted")
	}
	if err := (Catastrophic{Fraction: -0.1}).Validate(); err == nil {
		t.Error("negative fraction accepted")
	}
	if err := (Catastrophic{Fraction: math.NaN()}).Validate(); err == nil {
		t.Error("NaN fraction accepted")
	}
	if err := (Catastrophic{Fraction: 0.2, NotifyMean: -time.Second}).Validate(); err == nil {
		t.Error("negative notify mean accepted")
	}
	if err := (Catastrophic{Fraction: 0.5, NotifyMean: time.Second}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestCatastrophicKillsFractionAndProtects(t *testing.T) {
	const n = 50
	net, views := buildNet(n)
	c := Catastrophic{
		At:         time.Second,
		Fraction:   0.2,
		NotifyMean: 500 * time.Millisecond,
		Protect:    []wire.NodeID{0, 1},
	}
	victims, err := c.Apply(net, views, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if len(victims) != 10 {
		t.Fatalf("%d victims, want 10", len(victims))
	}
	for _, v := range victims {
		if v == 0 || v == 1 {
			t.Fatal("protected node selected as victim")
		}
	}
	// Before the failure instant everyone is alive.
	net.Run(999 * time.Millisecond)
	for _, v := range victims {
		if !net.Alive(v) {
			t.Fatal("victim died early")
		}
	}
	// After the instant all victims are dead.
	net.Run(time.Second)
	for _, v := range victims {
		if net.Alive(v) {
			t.Fatal("victim survived the failure")
		}
	}
	// Survivors' views still contain victims until notification delays pass.
	net.Run(time.Second + 2*c.NotifyMean + time.Millisecond)
	for i := 0; i < n; i++ {
		if !net.Alive(wire.NodeID(i)) {
			continue
		}
		for _, v := range victims {
			if views[i].Contains(v) {
				t.Fatalf("survivor %d still sees victim %d after max notify delay", i, v)
			}
		}
	}
}

func TestCatastrophicNotificationDelayDistribution(t *testing.T) {
	const n = 40
	net, views := buildNet(n)
	c := Catastrophic{At: 0, Fraction: 0.5, NotifyMean: 10 * time.Second}
	victims, err := c.Apply(net, views, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	// At t = NotifyMean, roughly half the (survivor, victim) notifications
	// should have fired (uniform [0, 2*mean]).
	net.Run(10 * time.Second)
	removed, total := 0, 0
	for i := 0; i < n; i++ {
		if !net.Alive(wire.NodeID(i)) {
			continue
		}
		for _, v := range victims {
			total++
			if !views[i].Contains(v) {
				removed++
			}
		}
	}
	frac := float64(removed) / float64(total)
	if frac < 0.35 || frac > 0.65 {
		t.Fatalf("at t=mean, %.2f of notifications fired; want ~0.5", frac)
	}
}

func TestCatastrophicZeroFraction(t *testing.T) {
	net, views := buildNet(10)
	victims, err := Catastrophic{At: 0, Fraction: 0}.Apply(net, views, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if len(victims) != 0 {
		t.Fatalf("victims = %d, want 0", len(victims))
	}
}
