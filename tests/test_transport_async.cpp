// The epoll progress engine and the async completion-queue client path:
//
//   * FrameReassembler — chunked streams reassemble byte-exact through the
//     pooled block, large payloads take the zero-copy streaming path, pool
//     blocks recycle across connections, hostile prefixes reject.
//   * CompletionQueue pipelining — a burst of async_put/async_get submits
//     without blocking, every handle completes exactly once, outstanding()
//     drains to zero.
//   * Cancellation — close() fails every in-flight async op with
//     Unavailable; a server that never replies cannot strand the client.
//   * Deadlines — an unanswered request expires mid-flight with
//     DeadlineExceeded on the transport's timer thread.
//   * Backpressure — a tiny backlog watermark blocks deliver() against a
//     slow reader instead of growing the queue without bound, and every
//     frame still arrives.
//   * Disconnects — a dying server fails pending async ops promptly.
//   * Retries — every entry point retries an AdmissionReject up to
//     max_attempts, a backoff is capped at the deadline's wall-clock budget,
//     and close() cancels an op waiting out its backoff.
//   * Pool fan-out — a multi-connection client against a multi-progress-
//     thread server: concurrent async traffic, then both linearizability
//     checkers over the served histories.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "harness/stress.h"
#include "net/codec.h"
#include "net/reassembly.h"
#include "net/transport.h"
#include "store/client.h"
#include "store/remote.h"
#include "store/store_service.h"

namespace lds::net {
namespace {

using store::RemoteGet;
using store::RemoteMessage;
using store::RemotePut;
using store::register_store_wire;

codec::Frame store_put_frame(OpId op, const std::string& key,
                             std::size_t value_bytes, Rng& rng) {
  register_store_wire();
  return codec::encode(
      *RemoteMessage::make(op, RemotePut{key, Value(rng.bytes(value_bytes))}));
}

// ---- FrameReassembler --------------------------------------------------------

TEST(FrameReassembler, ReassemblesChunkedStreamsByteExact) {
  register_store_wire();
  Rng rng(41);
  // Frames around every interesting size: tiny, block-straddling, and well
  // past the zero-copy threshold.
  const std::size_t sizes[] = {0, 1, 64, 1000, 4096, 9000, 70000};
  std::vector<std::uint8_t> stream;
  std::size_t want = 0;
  for (const std::size_t n : sizes) {
    const codec::Frame f =
        store_put_frame(100 + want, "k" + std::to_string(n), n, rng);
    const Bytes flat = f.to_bytes();
    stream.insert(stream.end(), flat.begin(), flat.end());
    ++want;
  }
  // Feed in every chunking: 1 byte at a time, 7, 1024, and all-at-once.
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{1024}, stream.size()}) {
    BufferPool pool(8 << 10, 4);
    FrameReassembler::Options ropt;
    ropt.zero_copy_threshold = 4096;
    FrameReassembler rx(&pool, ropt);
    std::vector<MessagePtr> out;
    std::size_t off = 0;
    while (off < stream.size()) {
      const auto [p, cap] = rx.recv_span();
      ASSERT_GT(cap, 0u);
      const std::size_t n = std::min({chunk, cap, stream.size() - off});
      std::memcpy(p, stream.data() + off, n);
      rx.commit(n);
      off += n;
      ASSERT_TRUE(rx.drain(&out).ok());
    }
    ASSERT_EQ(out.size(), std::size_t{7}) << "chunk=" << chunk;
    EXPECT_TRUE(rx.idle());
    for (std::size_t i = 0; i < out.size(); ++i) {
      const auto* m = dynamic_cast<const RemoteMessage*>(out[i].get());
      ASSERT_NE(m, nullptr);
      const auto* put = std::get_if<RemotePut>(&m->body());
      ASSERT_NE(put, nullptr);
      EXPECT_EQ(put->value.size(), sizes[i]);
      EXPECT_EQ(put->key, "k" + std::to_string(sizes[i]));
    }
    // The big payloads never touched the block (zero-copy streaming kicks
    // in whenever a >=threshold payload is not already fully buffered).
    if (chunk < 4096) {
      EXPECT_GT(rx.zero_copy_bytes(), 0u) << "chunk=" << chunk;
    }
  }
}

TEST(FrameReassembler, PoolRecyclesBlocksAcrossConnections) {
  BufferPool pool(4 << 10, 2);
  for (int round = 0; round < 5; ++round) {
    FrameReassembler rx(&pool, FrameReassembler::Options{});
    const auto [p, cap] = rx.recv_span();  // forces block acquisition
    (void)p;
    EXPECT_EQ(cap, 4u << 10);
  }
  // First reassembler allocated; the rest reused its released block.
  EXPECT_EQ(pool.allocations(), 1u);
  EXPECT_EQ(pool.reuses(), 4u);
}

TEST(FrameReassembler, HostileAndOversizedStreamsReject) {
  register_store_wire();
  {  // garbage magic
    FrameReassembler rx(nullptr, FrameReassembler::Options{});
    const std::uint8_t junk[] = {0, 0, 0, 60, 'X', 'X', 9, 9,
                                 9, 9, 9, 9,  9,   9,   9, 9,
                                 9, 9, 9, 9,  9,   9,   9, 9,
                                 9};
    auto [p, cap] = rx.recv_span();
    ASSERT_GE(cap, sizeof junk);
    std::memcpy(p, junk, sizeof junk);
    rx.commit(sizeof junk);
    std::vector<MessagePtr> out;
    EXPECT_FALSE(rx.drain(&out).ok());
  }
  {  // a declared length past the reassembler's cap rejects BEFORE buffering
    Rng rng(7);
    const codec::Frame f = store_put_frame(1, "k", 100000, rng);
    const Bytes flat = f.to_bytes();
    FrameReassembler::Options ropt;
    ropt.max_frame_bytes = 64 << 10;
    FrameReassembler rx(nullptr, ropt);
    auto [p, cap] = rx.recv_span();
    const std::size_t n = std::min(cap, flat.size());
    std::memcpy(p, flat.data(), n);
    rx.commit(n);
    std::vector<MessagePtr> out;
    const Status s = rx.drain(&out);
    EXPECT_FALSE(s.ok());
    EXPECT_NE(s.to_string().find("exceeds"), std::string::npos);
  }
}

// ---- transport timers --------------------------------------------------------

TEST(TcpTransport, AfterRunsOnTimerThreadAndStopsCleanly) {
  TcpTransport server;
  ASSERT_TRUE(server.listen(0, [](NodeId, MessagePtr) {}).ok());
  std::atomic<int> fired{0};
  ASSERT_TRUE(server.after(0.01, [&] { fired.fetch_add(1); }));
  ASSERT_TRUE(server.after(0.02, [&] { fired.fetch_add(1); }));
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (fired.load() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(fired.load(), 2);
  server.stop();
  // A stopped transport refuses new timers instead of retaining them.
  EXPECT_FALSE(server.after(0.01, [&] { fired.fetch_add(1); }));
}

// ---- backpressure ------------------------------------------------------------

TEST(TcpTransport, BacklogWatermarkBlocksInsteadOfGrowingUnbounded) {
  register_store_wire();
  // Server reads slowly: its handler sleeps, stalling its progress thread,
  // so the kernel buffers fill and the client's backlog grows.
  TcpTransport server;
  std::atomic<std::uint64_t> received{0};
  ASSERT_TRUE(server
                  .listen(0,
                          [&](NodeId, MessagePtr) {
                            std::this_thread::sleep_for(
                                std::chrono::milliseconds(1));
                            received.fetch_add(1);
                          })
                  .ok());

  TcpTransport::Options copt;
  copt.backlog_high_watermark = 64 << 10;  // tiny: one big frame fills it
  copt.backlog_low_watermark = 16 << 10;
  TcpTransport client(copt);
  NodeId peer = 0;
  ASSERT_TRUE(client
                  .connect("127.0.0.1", server.port(),
                           [](NodeId, MessagePtr) {}, &peer)
                  .ok());

  // Enough bytes to overflow loopback kernel buffering (tens of MB), so the
  // client's user-space backlog genuinely fills against the slow reader.
  Rng rng(3);
  const std::uint64_t kFrames = 240;
  const Value big(rng.bytes(256 << 10));
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    client.deliver(0, peer, RemoteMessage::make(i, RemotePut{"k", big}), 0);
  }
  // Every frame still arrives (blocked, never dropped) ...
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (received.load() < kFrames &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(received.load(), kFrames);
  EXPECT_EQ(client.frames_dropped(), 0u);
  // ... and the watermark actually engaged.
  EXPECT_GT(client.backpressure_stalls(), 0u);
  // Large payloads took the zero-copy receive path on the server.
  EXPECT_GT(server.zero_copy_bytes_received(), 0u);
  client.stop();
  server.stop();
}

// ---- completion queue over a real served store -------------------------------

struct ServedStore {
  store::StoreOptions sopt;
  std::unique_ptr<store::StoreService> svc;

  explicit ServedStore(std::size_t net_threads = 1, std::size_t shards = 2) {
    sopt.shards = shards;
    sopt.engine_mode = EngineMode::Parallel;
    sopt.engine_threads = 2;
    sopt.seed = 23;
    svc = std::make_unique<store::StoreService>(sopt);
    store::StoreService::ListenOptions lo;
    lo.net_threads = net_threads;
    const Status st = svc->listen(0, lo);
    EXPECT_TRUE(st.ok()) << st.to_string();
  }
};

TEST(AsyncClient, CompletionQueuePipeliningCompletesEveryHandle) {
  ServedStore served;
  Status st;
  auto client = store::Client::connect("127.0.0.1", served.svc->listen_port(),
                                       &st);
  ASSERT_NE(client, nullptr) << st.to_string();

  // Pipeline a burst of puts to distinct keys; none of these submissions
  // blocks on a reply.  (Distinct keys: concurrent same-key puts may
  // linearize in any order, so "last submitted wins" would be unsound.)
  const int kOps = 64;
  std::set<std::uint64_t> put_handles;
  for (int i = 0; i < kOps; ++i) {
    put_handles.insert(client->async_put(
        "key-" + std::to_string(i),
        Value::from_string("v" + std::to_string(i))));
  }
  ASSERT_EQ(put_handles.size(), static_cast<std::size_t>(kOps));

  auto& cq = client->completions();
  std::set<std::uint64_t> done;
  store::Completion c;
  while (cq.outstanding() > 0) {
    ASSERT_TRUE(cq.wait(&c, 30.0));
    EXPECT_TRUE(c.put.status.ok()) << c.put.status.to_string();
    EXPECT_EQ(c.kind, store::Completion::Kind::Put);
    EXPECT_TRUE(done.insert(c.handle).second) << "duplicate completion";
  }
  EXPECT_EQ(done, put_handles);

  // Now pipelined gets: every key reads back its (unique) written value —
  // all puts completed before the first get was submitted.
  std::map<std::uint64_t, std::string> want;
  for (int i = 0; i < kOps; ++i) {
    const std::string key = "key-" + std::to_string(i);
    want[client->async_get(key)] = "v" + std::to_string(i);
  }
  while (cq.outstanding() > 0) {
    ASSERT_TRUE(cq.wait(&c, 30.0));
    ASSERT_EQ(c.kind, store::Completion::Kind::Get);
    ASSERT_TRUE(c.get.status.ok()) << c.get.status.to_string();
    ASSERT_EQ(want.count(c.handle), 1u);
    EXPECT_EQ(c.get.value, Value::from_string(want[c.handle]));
  }
  EXPECT_FALSE(cq.poll(&c));
}

TEST(AsyncClient, CloseCancelsInFlightOpsWithUnavailable) {
  register_store_wire();
  // A server that accepts and then ignores every request: the only way an
  // async op can complete is through cancellation.
  TcpTransport silent;
  ASSERT_TRUE(silent.listen(0, [](NodeId, MessagePtr) {}).ok());

  Status st;
  auto client = store::Client::connect("127.0.0.1", silent.port(), &st);
  ASSERT_NE(client, nullptr) << st.to_string();
  auto& cq = client->completions();
  for (int i = 0; i < 8; ++i) {
    client->async_get("key-" + std::to_string(i));
  }
  EXPECT_EQ(cq.outstanding(), 8u);
  client->close();
  store::Completion c;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(cq.wait(&c, 10.0)) << "completion " << i << " never arrived";
    EXPECT_TRUE(c.get.status.is(StatusCode::kUnavailable))
        << c.get.status.to_string();
  }
  EXPECT_EQ(cq.outstanding(), 0u);
  // New submissions after close fail immediately, still via the queue.
  client->async_put("k", Value::from_string("v"));
  ASSERT_TRUE(cq.wait(&c, 10.0));
  EXPECT_TRUE(c.put.status.is(StatusCode::kUnavailable));
  silent.stop();
}

TEST(AsyncClient, DeadlineExpiresMidFlight) {
  register_store_wire();
  TcpTransport silent;
  ASSERT_TRUE(silent.listen(0, [](NodeId, MessagePtr) {}).ok());

  Status st;
  auto client = store::Client::connect("127.0.0.1", silent.port(), &st);
  ASSERT_NE(client, nullptr) << st.to_string();
  store::OpOptions opts;
  opts.deadline = 0.1;  // wall-clock seconds in remote mode
  const auto t0 = std::chrono::steady_clock::now();
  client->async_get("key", opts);
  store::Completion c;
  ASSERT_TRUE(client->completions().wait(&c, 30.0));
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_TRUE(c.get.status.is(StatusCode::kDeadlineExceeded))
      << c.get.status.to_string();
  EXPECT_LT(waited, 10.0);  // expiry, not a hung RPC
  silent.stop();
}

TEST(AsyncClient, ServerDeathFailsPendingOpsPromptly) {
  register_store_wire();
  auto silent = std::make_unique<TcpTransport>();
  ASSERT_TRUE(silent->listen(0, [](NodeId, MessagePtr) {}).ok());

  Status st;
  auto client = store::Client::connect("127.0.0.1", silent->port(), &st);
  ASSERT_NE(client, nullptr) << st.to_string();
  for (int i = 0; i < 4; ++i) client->async_get("key");
  EXPECT_EQ(client->completions().outstanding(), 4u);
  silent->stop();  // connection drops; client sees EOF on its progress thread
  store::Completion c;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client->completions().wait(&c, 10.0));
    EXPECT_TRUE(c.get.status.is(StatusCode::kUnavailable))
        << c.get.status.to_string();
  }
}

// ---- remote retry contract ---------------------------------------------------

/// A served Parallel store that rejects every put (admission_limit = 0).
struct RejectingStore {
  std::unique_ptr<store::StoreService> svc;

  RejectingStore() {
    store::StoreOptions sopt;
    sopt.shards = 1;
    sopt.engine_mode = EngineMode::Parallel;
    sopt.engine_threads = 1;
    sopt.seed = 29;
    sopt.admission_limit = 0;
    svc = std::make_unique<store::StoreService>(sopt);
    const Status st = svc->listen(0);
    EXPECT_TRUE(st.ok()) << st.to_string();
  }
  std::uint64_t rejected() const {
    return svc->metrics().counter_total("puts_rejected");
  }
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

TEST(AsyncClient, RetryPolicyRunsInWallClockSecondsOverTcp) {
  RejectingStore served;
  Status st;
  auto client = store::Client::connect("127.0.0.1", served.svc->listen_port(),
                                       &st);
  ASSERT_NE(client, nullptr) << st.to_string();
  const Value v = Value::from_string("v");

  // Every entry point retries a reject until max_attempts, then surfaces it.
  store::OpOptions retry;
  retry.retry.max_attempts = 3;
  retry.retry.backoff = 0.01;
  std::uint64_t before = served.rejected();
  const auto put = client->put_sync("k", v, retry);
  EXPECT_TRUE(put.status().is(StatusCode::kAdmissionReject))
      << put.status().to_string();
  EXPECT_EQ(served.rejected() - before, 3u);

  before = served.rejected();
  store::PutResult inline_result;
  std::thread::id cb_thread;
  client->put("k", v,
              [&](const store::PutResult& r) {
                inline_result = r;
                cb_thread = std::this_thread::get_id();
              },
              retry);
  // The callback ran on this thread before put() returned.
  EXPECT_EQ(cb_thread, std::this_thread::get_id());
  EXPECT_TRUE(inline_result.status.is(StatusCode::kAdmissionReject))
      << inline_result.status.to_string();
  EXPECT_EQ(served.rejected() - before, 3u);

  before = served.rejected();
  std::promise<store::PutResult> async_done;
  client->async_put(
      "k", v, [&](const store::PutResult& r) { async_done.set_value(r); },
      retry);
  auto fut = async_done.get_future();
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  EXPECT_TRUE(fut.get().status.is(StatusCode::kAdmissionReject));
  EXPECT_EQ(served.rejected() - before, 3u);

  before = served.rejected();
  const auto cas = client->put_if_version_sync("k", v, Version(kTag0), retry);
  EXPECT_TRUE(cas.status().is(StatusCode::kAdmissionReject))
      << cas.status().to_string();
  EXPECT_EQ(served.rejected() - before, 3u);

  // A backoff longer than the deadline is capped at the budget left: the op
  // reports DeadlineExceeded on time, not a 30 s backoff late.
  store::OpOptions tight;
  tight.deadline = 0.2;
  tight.retry.max_attempts = 5;
  tight.retry.backoff = 30;
  auto t0 = std::chrono::steady_clock::now();
  const auto late = client->put_sync("k", v, tight);
  EXPECT_TRUE(late.status().is(StatusCode::kDeadlineExceeded))
      << late.status().to_string();
  EXPECT_LT(seconds_since(t0), 1.0);

  std::promise<store::PutResult> capped_done;
  t0 = std::chrono::steady_clock::now();
  client->async_put(
      "k", v, [&](const store::PutResult& r) { capped_done.set_value(r); },
      tight);
  auto capped = capped_done.get_future();
  ASSERT_EQ(capped.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_TRUE(capped.get().status.is(StatusCode::kDeadlineExceeded));
  EXPECT_LT(seconds_since(t0), 1.0);
}

TEST(AsyncClient, CloseCancelsAnOpWaitingOutItsBackoff) {
  RejectingStore served;
  Status st;
  auto client = store::Client::connect("127.0.0.1", served.svc->listen_port(),
                                       &st);
  ASSERT_NE(client, nullptr) << st.to_string();
  store::OpOptions opts;
  opts.retry.max_attempts = 5;
  opts.retry.backoff = 30;
  client->async_put("k", Value::from_string("v"), opts);
  // Once the first attempt is rejected, the op sits in its 30 s backoff.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (served.rejected() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(served.rejected(), 1u);
  // Let the reject reach the client so the op is in its backoff.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  client->close();
  store::Completion c;
  ASSERT_TRUE(client->completions().wait(&c, 10.0));
  EXPECT_TRUE(c.put.status.is(StatusCode::kUnavailable))
      << c.put.status.to_string();
}

TEST(AsyncClient, PoolFanOutHistoriesPassBothVerifiers) {
  ServedStore served(/*net_threads=*/2, /*shards=*/2);
  store::Client::ConnectOptions copts;
  copts.connections = 4;
  Status st;
  auto client = store::Client::connect("127.0.0.1", served.svc->listen_port(),
                                       &st, copts);
  ASSERT_NE(client, nullptr) << st.to_string();

  // Writer+reader threads hammer a small keyspace through the async API
  // across the 4-connection pool.
  const int kThreads = 3, kOpsPerThread = 60;
  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(100 + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key = "k" + std::to_string(rng.uniform_int(0, 4));
        if (rng.bernoulli(0.5)) {
          const auto r = client->put_sync(
              key, Value::from_string("t" + std::to_string(t) + "-" +
                                      std::to_string(i)));
          if (!r.ok()) failures.fetch_add(1);
        } else {
          const auto r = client->get_sync(key);
          if (!r.ok() && !r.status().is(StatusCode::kNotFound)) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  // Plus an async burst from this thread, drained through the queue.
  auto& cq = client->completions();
  for (int i = 0; i < 40; ++i) {
    client->async_put("k" + std::to_string(i % 5),
                      Value::from_string("async-" + std::to_string(i)));
  }
  store::Completion c;
  while (cq.outstanding() > 0) {
    ASSERT_TRUE(cq.wait(&c, 60.0));
    EXPECT_TRUE(c.put.status.ok()) << c.put.status.to_string();
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);

  // multi_* fan out concurrently over the pool and stay correct.
  std::vector<store::KeyValue> entries;
  for (int i = 0; i < 16; ++i) {
    entries.push_back({"bulk-" + std::to_string(i),
                       Value::from_string("b" + std::to_string(i))});
  }
  const auto puts = client->multi_put_sync(entries);
  ASSERT_EQ(puts.size(), entries.size());
  for (const auto& r : puts) EXPECT_TRUE(r.status.ok());
  std::vector<std::string> keys;
  for (const auto& e : entries) keys.push_back(e.key);
  const auto gets = client->multi_get_sync(keys);
  ASSERT_EQ(gets.size(), keys.size());
  for (std::size_t i = 0; i < gets.size(); ++i) {
    ASSERT_TRUE(gets[i].status.ok()) << gets[i].status.to_string();
    EXPECT_EQ(gets[i].value, entries[i].value);
  }

  client->close();
  served.svc->stop_listening();
  served.svc->quiesce();
  for (std::size_t s = 0; s < served.svc->num_shards(); ++s) {
    const auto& h = served.svc->shard_history(s);
    EXPECT_TRUE(h.all_complete());
    EXPECT_TRUE(h.check_atomicity(Bytes{}).ok);
    EXPECT_TRUE(harness::verify_read_freshness(h).ok);
  }
}

}  // namespace
}  // namespace lds::net
