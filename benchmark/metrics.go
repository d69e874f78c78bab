package main

// metricSpec is one row of the benchmark's contract. BENCHMARK.json at the
// repository root restates this table for the driver; a test keeps the two
// equal.
type metricSpec struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	what   string
}

// endToEnd are what the two customers of the bargain see: a device that
// wants its contribution accepted, a service that wants exact sums.
// Measured with tracing off; every workload reports every one.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25, "stack assembly, provisioning, grants, pool generation, warm-up (median of 3 set-ups)"},
	{"contrib_per_s", "1/s", "higher", 0.25, "accepted contributions whose round sum verified, median over equal-count segments of tens of milliseconds (= sessions/s on device-session)"},
	{"frame_p50_ms", "ms", "lower", 0.25, "median submit round trip, call to tallies"},
	{"cpu_us_per_contrib", "us", "lower", 0.25, "process user+sys CPU per accepted contribution, median over the same segments"},
	{"peak_rss_mb", "MB", "lower", 0.25, "process ru_maxrss"},
}

// perLayer are timings of, or counters read from, exported functions of
// one module each, taken in the traced pass. The prefix is the module.
var perLayer = []metricSpec{
	{"glimmer.provision_us", "us", "lower", 0, "NewDevice + Service.Provision"},
	{"glimmer.ticket_request_us", "us", "lower", 0, "Device.TicketRequest + InstallTicket"},
	{"glimmer.contribute_us", "us", "lower", 0, "Contribute[Ticketed] + encode"},
	{"glimmer.ecalls_per_contrib", "count", "lower", 0, "Device.Stats ECalls per contribution"},
	{"glimmer.peek_ns_per_contrib", "ns", "lower", 0, "PeekContributionService + PeekContributionRound"},
	{"glimmer.view_decode_ns_per_contrib", "ns", "lower", 0, "TicketedView.Decode"},
	{"wire.encode_us_per_frame", "us", "lower", 0, "AppendBatch"},
	{"wire.decode_us_per_frame", "us", "lower", 0, "DecodeBatchInto"},
	{"wire.frame_bytes", "B", "lower", 0, "EncodedBatchSize"},
	{"gaas.rtt_tls_us", "us", "lower", 0, "SubmitBatch of the frame to an accept-all Ingestor over TLS"},
	{"gaas.rtt_tcp_us", "us", "lower", 0, "the same over plaintext TCP"},
	{"gaas.tls_share", "ratio", "lower", 0, "(rtt_tls - rtt_tcp) / traced frame"},
	{"gaas.rtt_share", "ratio", "lower", 0, "rtt_tls / traced frame"},
	{"gaas.dial_us", "us", "lower", 0, "DialContext, TLS, no session"},
	{"gaas.grant_rtt_us", "us", "lower", 0, "Client.RequestTicket"},
	{"gaas.merge_rtt_us", "us", "lower", 0, "Client.MergePartialSeal"},
	{"gaas.frame_p99_ms", "ms", "lower", 0, "untraced frame tail"},
	{"gaas.frame_p999_ms", "ms", "lower", 0, "untraced frame tail, or the highest percentile with 10 samples beyond it"},
	{"gaas.mallocs_per_frame", "count", "lower", 0, "runtime.MemStats Mallocs per untraced frame, whole process"},
	{"gaas.shed_batches", "count", "lower", 0, "Server.Stats ShedBatches; must be 0"},
	{"gaas.refused_conns", "count", "lower", 0, "Server.Stats refused connections; must be 0"},
	{"service.ingest_us_per_frame", "us", "lower", 0, "Registry.IngestBatch on a journal-free clone"},
	{"service.ingest_journal_us_per_frame", "us", "lower", 0, "Registry.IngestBatch on a journaled clone"},
	{"service.other_ns_per_contrib", "ns", "lower", 0, "ingest minus (peek + view + mac + accumulate)"},
	{"service.per_item_ns_per_contrib", "ns", "lower", 0, "Registry.Ingest one contribution at a time"},
	{"service.batch_speedup", "ratio", "higher", 0, "per-item / batch, per contribution"},
	{"service.round_create_us", "us", "lower", 0, "first frame of a round minus a steady frame"},
	{"service.seal_us", "us", "lower", 0, "RoundManager.Seal, journal-free"},
	{"service.grant_us", "us", "lower", 0, "Registry.GrantTicket, journal-free"},
	{"service.partial_seal_us", "us", "lower", 0, "RoundManager.ExportPartialSeal"},
	{"service.merge_us", "us", "lower", 0, "MergeHub.MergePartialSeal in-process"},
	{"service.rejected", "count", "lower", 0, "Registry + RoundManager + Pipeline Rejected(); equals the planted refusals"},
	{"xcrypto.mac_ns_per_contrib", "ns", "lower", 0, "MACState.SetKey + VerifyKeyed on the frame's own preimages"},
	{"xcrypto.mac_share", "ratio", "lower", 0, "MAC time / traced frame"},
	{"xcrypto.ecdsa_verify_us", "us", "lower", 0, "VerifyKey.Verify"},
	{"fixed.accumulate_ns_per_contrib", "ns", "lower", 0, "AccumulateWireInto"},
	{"durable.stage_us_per_frame", "us", "lower", 0, "Store.BatchAccepted"},
	{"durable.tax_share", "ratio", "lower", 0, "(ingest_journal - ingest) / ingest"},
	{"durable.barrier_us", "us", "lower", 0, "Store.RoundSealed"},
	{"durable.records_per_write", "ratio", "higher", 0, "Store.Stats Records / Writes"},
	{"durable.bytes_per_contrib", "B", "lower", 0, "Store.Stats BytesWritten per accepted contribution"},
	{"durable.syncs_per_round", "ratio", "lower", 0, "Store.Stats Syncs per round"},
	{"durable.staged_peak_bytes", "B", "lower", 0, "Store.Stats StagedPeak"},
	{"durable.recover_ms", "ms", "lower", 0, "Store.Recover from a copy taken right after a seal barrier"},
	{"durable.recover_mb_per_s", "MB/s", "higher", 0, "WAL bytes recovered per second"},
	{"durable.snapshot_ms", "ms", "lower", 0, "Store.Snapshot"},
	{"fleet.owner_ns_per_contrib", "ns", "lower", 0, "Ring.OwnerOf"},
	{"fleet.skew", "ratio", "lower", 0, "max / mean rounds per node on a 3-node ring"},
	{"trace.budget_gap_share", "ratio", "lower", 0, "|frame - (rtt_tls + ingest_journal)| / frame"},
	{"trace.overhead_share", "ratio", "lower", 0, "traced vs untraced single-generator frame median"},
	{"session_p50_ms", "ms", "lower", 0, "fresh device to first accepted contribution; a one-second probe everywhere but on device-session, and the least steady series on a shared host"},
	{"round_result_p50_ms", "ms", "lower", 0, "last acked frame to exact sum in hand; a few dozen rounds a run on device-session, too few to hold a bound"},
	{"failed_share", "ratio", "lower", 0, "failed checks / attempted; always 0 on a correct run, so it cannot be an end-to-end metric"},
}

func metricDef(name string) (metricSpec, bool) {
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m, true
			}
		}
	}
	return metricSpec{}, false
}

// workloadSpec names a workload and says why it exists.
type workloadSpec struct {
	name string
	why  string
}

var workloads = []workloadSpec{
	{"edge-steady", "relay traffic: dim-256 frames of 128 contributions under 128 distinct tickets; bytes-bound, so hashing, TLS records and lane accumulation do the work"},
	{"edge-small", "device-direct traffic: dim-8 frames of 8 contributions under one ticket; per-frame fixed cost does the work, and it is the only workload with planted refusals"},
	{"device-session", "what a new user pays: fresh device, provision, TLS dial, ticket grant, one contribution; ticket-table writes, a WAL barrier per grant, ECDSA and handshake bound"},
	{"fleet-signed", "three nodes and a merge coordinator on the ECDSA-signed path: per-item verify, ring routing, round churn, partial-seal sign and merge"},
}
