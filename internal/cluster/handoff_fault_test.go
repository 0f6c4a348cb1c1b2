package cluster

// Handoff persistence-failure policy: a drain whose persist fails is a
// failed handoff — the tenant stays resident and servable on this node,
// and ownership is only released once its state is durably on the
// shared store. Driven through the registry's faultfs seam with a
// direct handoffSweep call (no background loops, no real cluster).

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/store/faultfs"
)

func TestHandoffPersistFailureKeepsOwnership(t *testing.T) {
	fs := faultfs.New()
	reg, err := server.NewRegistry(server.RegistryConfig{
		Shards:     1,
		PersistDir: "tenants",
		FS:         fs,
		Logf:       t.Logf,
		Factory: func(userID string) *core.Client {
			return core.New(core.Options{Encoder: &testEncoder{dim: 32}, Tau: 0.9, TopK: 4})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{
		Self:     "127.0.0.1:18201",
		Peers:    []string{"127.0.0.1:18202"},
		VNodes:   64,
		Registry: reg,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Never Start()ed: the peer is never probed, the ring stays at its
	// two-member construction state, and sweeps run only by hand.

	// Find a tenant the ring places on the peer.
	victim := ""
	for i := 0; i < 256; i++ {
		id := fmt.Sprintf("user-%d", i)
		if n.Ring().Owner(id) != n.Self() {
			victim = id
			break
		}
	}
	if victim == "" {
		t.Fatal("no tenant mapped to the peer in 256 tries")
	}
	ten := reg.Get(victim)
	if _, err := ten.Client.Insert("question", "answer", cache.NoParent); err != nil {
		t.Fatal(err)
	}
	ten.Release()

	// The shared store fills: the drain's persist fails, so the handoff
	// must fail and the tenant must remain resident and servable here.
	fs.SetSpace(0)
	n.handoffSweep()
	if got := n.handoffErrors.Load(); got != 1 {
		t.Fatalf("handoffErrors = %d after failed persist, want 1", got)
	}
	if got := reg.Resident(); got != 1 {
		t.Fatalf("tenant not resident after failed handoff: Resident() = %d", got)
	}
	ten = reg.Get(victim)
	if res := ten.Client.Lookup("question", nil); !res.Hit {
		t.Fatalf("tenant lost its state during failed handoff: %+v", res)
	}
	ten.Release()

	// Storage heals: the next sweep drains for real, and only then is
	// residency released — with the snapshot durably on disk.
	fs.AddSpace(1 << 26)
	n.handoffSweep()
	if got := reg.Resident(); got != 0 {
		t.Fatalf("tenant still resident after healed handoff: Resident() = %d", got)
	}
	if got := n.handoffs.Load(); got != 1 {
		t.Fatalf("handoffs = %d after healed sweep, want 1", got)
	}
	if got := reg.Stats().Drains; got != 1 {
		t.Fatalf("Drains = %d, want 1", got)
	}

	// The durable snapshot revives the tenant wherever it lands next.
	reg2, err := server.NewRegistry(server.RegistryConfig{
		Shards:     1,
		PersistDir: "tenants",
		FS:         fs,
		Factory: func(userID string) *core.Client {
			return core.New(core.Options{Encoder: &testEncoder{dim: 32}, Tau: 0.9, TopK: 4})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ten2 := reg2.Get(victim)
	defer ten2.Release()
	if res := ten2.Client.Lookup("question", nil); !res.Hit {
		t.Fatalf("handed-off tenant did not revive from the shared store: %+v", res)
	}
}
