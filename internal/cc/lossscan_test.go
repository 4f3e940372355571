package cc_test

import (
	"path/filepath"
	"testing"

	"repro/internal/campaign"
	"repro/internal/cc"
	"repro/internal/exp"
	"repro/internal/scenario"
)

// lossScanWorlds are the worlds TestLossScanMatchesRescan and the fuzz
// target's seed corpus are shaped after: where the scan is hottest, and the
// three kinds of world in which a cursor or a send-order log can go wrong.
func lossScanWorlds(t testing.TB) []scenario.Spec {
	t.Helper()
	remy := func(table string) string { return filepath.Join(exp.FindAssetsDir(), table) }
	onOff := scenario.ByBytesWorkload(scenario.ExponentialDist(100e3), scenario.ExponentialDist(0.5))

	// benchmark/'s remy_exec (d): 32 RemyCC senders on 10 Gbps for 0.1 s.
	// Windows of thousands of packets and drop bursts of hundreds, so nearly
	// every ACK in recovery is a partial one.
	dc := scenario.New(
		scenario.WithName("remycc-dc-10g"),
		scenario.WithLink(10e9),
		scenario.WithQueue("", 1000),
		scenario.WithDuration(0.1),
		scenario.WithSeed(1),
		scenario.WithFlow(scenario.FlowSpec{
			Scheme: "remy", RemyCC: remy("remycc_dc.json"), Count: 32, RTTMs: 4,
			Workload: scenario.ByBytesWorkload(scenario.ExponentialDist(20e6), scenario.ExponentialDist(0.1)),
		}),
	)

	// The campaign_grid cell whose digest moved when a prototype's cursor ran
	// past nextSeq: short churning flows on a deep buffer, so timeouts rewind
	// below a highestAcked that stays hundreds of packets ahead.
	sweep := campaign.SweepSpec{
		Name: "benchmark-grid",
		Axes: []campaign.Axis{
			{Name: campaign.AxisFamily, Strings: []string{"flowchurn"}},
			{Name: campaign.AxisScheme, Strings: []string{"newreno"}},
			{Name: campaign.AxisOfferedLoad, Values: []float64{0.6}},
			{Name: campaign.AxisRTTMs, Values: []float64{40}},
			{Name: campaign.AxisRateScale, Values: []float64{2}},
			{Name: campaign.AxisBufferPackets, Values: []float64{1000}},
		},
		DurationSeconds: 5,
		Seed:            1,
		Repetitions:     2,
	}
	if err := sweep.Validate(); err != nil {
		t.Fatal(err)
	}
	cell, err := sweep.Cell(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := "family=flowchurn/scheme=newreno/offered_load=0.6/rtt_ms=40/rate_scale=2/buffer_packets=1000"; cell.ID != want {
		t.Fatalf("cell ID %q, want %q", cell.ID, want)
	}
	churn, err := cell.Spec()
	if err != nil {
		t.Fatal(err)
	}

	// The golden battery's lossy-outage world: Gilbert–Elliott bursts take
	// retransmissions as readily as first transmissions, and the outage ends
	// in timeouts.
	outage := scenario.LossyOutageSpec(scenario.FamilyConfig{
		Scheme:          "cubic",
		Workload:        scenario.ByBytesWorkload(scenario.ExponentialDist(2e6), scenario.ExponentialDist(0.2)),
		DurationSeconds: 6, Seed: 20130812, Repetitions: 2,
		OutageSeconds: 0.5, BurstLoss: 0.4,
	})

	// benchmark/'s remy_exec (c) with twice the senders and a tenth of the
	// buffer: RemyCC on a cellular trace link, where the delivery rate (and
	// with it the smoothed RTT the rule compares against) swings by an order
	// of magnitude.
	verizon := scenario.New(
		scenario.WithName("remycc-verizon"),
		scenario.WithQueue("", 100),
		scenario.WithDuration(30),
		scenario.WithSeed(1),
		scenario.WithRepetitions(2),
		scenario.WithFlow(scenario.FlowSpec{
			Scheme: "remy", RemyCC: remy("remycc_delta1.json"), Count: 8, RTTMs: 50, Workload: onOff,
		}),
	)
	verizon.Link = scenario.LinkSpec{Model: "verizon"}

	return []scenario.Spec{dc, churn, outage, verizon}
}

// TestLossScanMatchesRescan holds every presumed-lost scan of four worlds to
// the full rescan it replaced (refPresumedLost). The goldens cannot stand in
// for it: a prototype whose cursor ran past nextSeq after a timeout passed
// every one of them. (The log's two remaining cases, an entry superseded and
// an entry above the bound, cannot arise in a scan made from OnAck; see
// TestLossScanBetweenAcks.)
func TestLossScanMatchesRescan(t *testing.T) {
	watch := cc.WatchLossScans(t)
	for _, spec := range lossScanWorlds(t) {
		before := *watch
		results, err := scenario.Runner{Workers: 1}.RunOne(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		var acked int64
		for _, r := range results {
			for _, f := range r.Res.Flows {
				acked += f.Transport.AcksReceived
			}
			for _, c := range r.Res.Churn {
				acked += c.Transport.AcksReceived
			}
		}
		t.Logf("%-28s %8d acks %6d scans queued %7d (%d again) visiting %8d; log: %d fresh, %d kept, %d superseded; bound past nextSeq in %d scans queueing %d",
			spec.Name, acked, watch.Scans-before.Scans, watch.Queued-before.Queued, watch.RequeuedLost-before.RequeuedLost,
			watch.Visits-before.Visits, watch.FreshResends-before.FreshResends, watch.KeptAbove-before.KeptAbove,
			watch.Superseded-before.Superseded, watch.BoundPastNext-before.BoundPastNext, watch.QueuedPastNext-before.QueuedPastNext)
		if watch.Scans == before.Scans {
			t.Errorf("%s: no scan was compared", spec.Name)
		}
	}
	if watch.Scans < 1000 {
		t.Errorf("only %d scans were compared, want at least 1000", watch.Scans)
	}
	for _, c := range []struct {
		name string
		n    int
	}{
		{"a retransmitted record queued again", watch.RequeuedLost},
		{"a scan whose bound was at or above nextSeq", watch.BoundPastNext},
		{"a fresh log entry left alone", watch.FreshResends},
	} {
		if c.n == 0 {
			t.Errorf("never exercised: %s", c.name)
		}
	}
}
