(* Every metric the benchmark reports: name, unit, direction, and — for
   the per-layer ones — the layer it reads.  BENCHMARK.json carries the
   same names with their bounds; the smoke test holds the two equal. *)

type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better; layer : string }

let m layer name unit_ better = { name; unit_; better; layer }

let end_to_end =
  let e = m "end_to_end" in
  [
    e "setup_s" "s" Lower;
    e "op_s_p50" "s" Lower;
    e "sync_MBps" "MB/s" Higher;
    e "wire_c2s_bytes" "B" Lower;
    e "wire_s2c_bytes" "B" Lower;
    e "slow_link_s" "s" Lower;
    e "rss_mb" "MiB" Lower;
  ]

let per_layer =
  let transport = m "transport" in
  let pull = m "pull machines" in
  let push = m "push machines" in
  let gossip = m "gossip" in
  let meta = m "metadata" in
  let codec = m "codec" in
  let hashing = m "hashing" in
  let deflate = m "compression" in
  let store = m "store" in
  let reference = m "reference" in
  let obs = m "observability" in
  let host = m "host" in
  [
    transport "net.transport_s" "s" Lower;
    transport "net.socketpair_s" "s" Lower;
    transport "net.tcp_s" "s" Lower;
    transport "net.idle_share" "ratio" Lower;
    transport "net.frames_c2s" "count" Lower;
    transport "net.frames_s2c" "count" Lower;
    transport "net.round_trips" "count" Lower;
    transport "daemon.select_iterations" "count" Lower;
    transport "client.cpu_s" "s" Lower;
    transport "server.cpu_s" "s" Lower;
    pull "replay.wall_s" "s" Lower;
    pull "replay.coverage" "ratio" Higher;
    pull "session.announce_s" "s" Lower;
    pull "session.matched_s" "s" Lower;
    pull "session.ack_s" "s" Lower;
    pull "puller.welcome_s" "s" Lower;
    pull "puller.hashes_s" "s" Lower;
    pull "puller.tail_s" "s" Lower;
    pull "puller.bye_s" "s" Lower;
    pull "puller.match_ratio" "ratio" Higher;
    pull "session.cache_hit_rate" "ratio" Higher;
    pull "session.full_fallbacks" "count" Lower;
    push "pusher.calls_s" "s" Lower;
    push "session.push_begin_s" "s" Lower;
    push "session.chunk_data_s" "s" Lower;
    push "push.dedup_ratio" "ratio" Higher;
    push "push.manifest_bytes" "B" Lower;
    gossip "gossip.recon_s" "s" Lower;
    gossip "gossip.table_s" "s" Lower;
    gossip "gossip.transfer_s" "s" Lower;
    gossip "gossip.apply_s" "s" Lower;
    gossip "gossip.recon_frames" "count" Lower;
    gossip "gossip.files_pulled" "count" Lower;
    gossip "replica.set_ms" "ms" Lower;
    gossip "replica.load_s" "s" Lower;
    meta "meta.announce_bytes" "B" Lower;
    meta "meta.verdict_bytes" "B" Lower;
    codec "msg.decode_ns" "ns" Lower;
    codec "msg.encode_ns" "ns" Lower;
    hashing "hash.fingerprint_MBps" "MB/s" Higher;
    hashing "hash.level_MBps" "MB/s" Higher;
    hashing "sigcache.hit_rate" "ratio" Higher;
    deflate "deflate.compress_MBps" "MB/s" Higher;
    deflate "deflate.inflate_MBps" "MB/s" Higher;
    deflate "deflate.ratio" "ratio" Lower;
    store "chunker.MBps" "MB/s" Higher;
    store "store.put_ms" "ms" Lower;
    store "store.fsck_errors" "count" Lower;
    reference "protocol.tuned_bytes" "B" Lower;
    reference "protocol.MBps" "MB/s" Higher;
    obs "obs.overhead_pct" "%" Lower;
    obs "obs.phase_coverage" "ratio" Higher;
    host "host.probe_ms" "ms" Lower;
    host "host.raw_op_s" "s" Lower;
  ]

let find name =
  List.find_opt (fun x -> String.equal x.name name) (end_to_end @ per_layer)
