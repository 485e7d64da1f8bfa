// avserved front-end tests, all in-process over real loopback sockets:
// endpoint round trips against the library's local results, per-connection
// request pipelining, protocol-error replies, graceful drain, and the
// generation-consistency guarantee under concurrent warm swaps (the
// TSan-targeted test of the acceptance criteria).
#include "server/server.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/validator.h"
#include "server/client.h"
#include "tests/test_util.h"

namespace av::net {
namespace {

ValidationRule DigitsRule(size_t width) {
  ValidationRule rule;
  rule.method = Method::kFmdvH;
  rule.pattern = *Pattern::Parse("<digit>{" + std::to_string(width) + "}");
  rule.segments = {rule.pattern};
  rule.train_size = 1000;
  rule.train_nonconforming = 1;
  return rule;
}

std::vector<std::string> Digits(size_t n, size_t width) {
  std::vector<std::string> values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::string v = std::to_string(i);
    v.insert(0, width > v.size() ? width - v.size() : 0, '1');
    values.push_back(std::move(v));
  }
  return values;
}

/// A serving stack on an ephemeral loopback port with a few stored rules.
class ServerTest : public testing::Test {
 protected:
  void SetUp() override {
    service_ = std::make_unique<ValidationService>(
        nullptr, AutoValidateOptions{}, /*num_train_threads=*/2);
    service_->Upsert("a", DigitsRule(3));
    service_->Upsert("b", DigitsRule(3));
    ServerConfig cfg;
    cfg.num_workers = 4;
    server_ = std::make_unique<Server>(service_.get(), cfg);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->port(), 0);
  }

  Client Connected() {
    Client client;
    EXPECT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    return client;
  }

  std::unique_ptr<ValidationService> service_;
  std::unique_ptr<Server> server_;
};

// ---------------------------------------------------------------------------
// Endpoint round trips.

TEST_F(ServerTest, ValidateMatchesLocal) {
  auto batch = Digits(200, 3);
  batch.push_back("oops");
  const ValidationReport local = *service_->Validate("a", batch);

  Client client = Connected();
  auto remote = client.Validate("a", batch);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(remote->store_version, service_->version());
  EXPECT_EQ(remote->report.total, local.total);
  EXPECT_EQ(remote->report.nonconforming, local.nonconforming);
  EXPECT_DOUBLE_EQ(remote->report.theta_test, local.theta_test);
  EXPECT_DOUBLE_EQ(remote->report.p_value, local.p_value);
  EXPECT_EQ(remote->report.flagged, local.flagged);
  EXPECT_EQ(remote->report.sample_violations, local.sample_violations);
}

TEST_F(ServerTest, ValidateUnknownColumnIsNotFound) {
  Client client = Connected();
  auto remote = client.Validate("nope", Digits(5, 3));
  ASSERT_FALSE(remote.ok());
  EXPECT_EQ(remote.status().code(), StatusCode::kNotFound);
  // The connection survives an application-level error.
  EXPECT_TRUE(client.Validate("a", Digits(5, 3)).ok());
}

TEST_F(ServerTest, ValidateTableMatchesLocalPerColumn) {
  const auto good = Digits(120, 3);
  const auto bad = Digits(120, 6);
  const std::vector<NamedColumn> named = {
      {"a", ColumnView(good)}, {"b", ColumnView(bad)}, {"x", ColumnView(good)}};
  const TableReport local = service_->ValidateAll(named);

  Client client = Connected();
  auto remote = client.ValidateTable({{"a", good}, {"b", bad}, {"x", good}});
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(remote->store_version, local.store_version);
  ASSERT_EQ(remote->columns.size(), local.columns.size());
  for (size_t i = 0; i < local.columns.size(); ++i) {
    EXPECT_EQ(remote->columns[i].name, local.columns[i].name);
    EXPECT_EQ(remote->columns[i].has_rule, local.columns[i].status.ok());
    if (local.columns[i].status.ok()) {
      EXPECT_EQ(remote->columns[i].report.nonconforming,
                local.columns[i].report.nonconforming);
      EXPECT_EQ(remote->columns[i].report.flagged,
                local.columns[i].report.flagged);
    }
  }
}

TEST_F(ServerTest, ColumnSessionStreamsAndPinsGeneration) {
  Client client = Connected();
  auto session = client.OpenColumnSession("a");
  ASSERT_TRUE(session.ok());
  const uint64_t pinned = session->store_version;

  // Swap the rule mid-stream: the session must keep judging by the rule it
  // opened with, and report the pinned generation.
  auto batch = Digits(100, 3);
  ASSERT_TRUE(client.FeedColumn(session->id, batch).ok());
  service_->Upsert("a", DigitsRule(6));
  EXPECT_GT(service_->version(), pinned);
  auto rows = client.FeedColumn(session->id, batch);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, 200u);

  auto finished = client.FinishColumnSession(session->id);
  ASSERT_TRUE(finished.ok());
  EXPECT_EQ(finished->store_version, pinned);
  EXPECT_EQ(finished->report.total, 200u);
  EXPECT_EQ(finished->report.nonconforming, 0u);  // old 3-digit rule applied

  // The session is gone after Finish.
  EXPECT_EQ(client.FeedColumn(session->id, batch).status().code(),
            StatusCode::kNotFound);
}

TEST_F(ServerTest, TableSessionAccumulatesAcrossMicroBatches) {
  Client client = Connected();
  auto session = client.OpenTableSession();
  ASSERT_TRUE(session.ok());

  const auto good = Digits(50, 3);
  const auto bad = Digits(50, 6);
  ASSERT_TRUE(client.FeedTable(session->id, {{"a", good}}).ok());
  auto rows = client.FeedTable(session->id, {{"a", good}, {"b", bad}});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, 150u);

  auto finished = client.FinishTableSession(session->id);
  ASSERT_TRUE(finished.ok());
  EXPECT_EQ(finished->store_version, session->store_version);
  ASSERT_EQ(finished->columns.size(), 2u);
  EXPECT_EQ(finished->columns[0].name, "a");
  EXPECT_EQ(finished->columns[0].report.total, 100u);
  EXPECT_EQ(finished->columns[0].report.nonconforming, 0u);
  EXPECT_EQ(finished->columns[1].name, "b");
  EXPECT_EQ(finished->columns[1].report.nonconforming, 50u);
}

TEST_F(ServerTest, TrainWithoutIndexFailsCleanly) {
  Client client = Connected();
  auto trained = client.Train("c", Digits(100, 4));
  ASSERT_FALSE(trained.ok());
  EXPECT_EQ(trained.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ServerTest, SaveRulesWithoutPathIsRejected) {
  Client client = Connected();
  auto saved = client.SaveRules();
  ASSERT_FALSE(saved.ok());
  EXPECT_EQ(saved.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ServerTest, StatsReportsCounters) {
  Client client = Connected();
  ASSERT_TRUE(client.Validate("a", Digits(10, 3)).ok());
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("frames_validate=1\n"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("store_rules=2\n"), std::string::npos);
  EXPECT_NE(stats->find("draining=0\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Transport behavior.

TEST_F(ServerTest, PipelinedRequestsAnswerInOrder) {
  // Send N requests back-to-back without reading, then collect the replies:
  // they must come back in request order (per-connection FIFO handling).
  Client client = Connected();
  const auto batch = Digits(50, 3);
  WireWriter w;
  w.PutStr("a");
  w.PutValues(batch);
  const std::string validate_payload = w.Take();

  std::string burst;
  constexpr int kN = 16;
  for (int i = 0; i < kN; ++i) {
    burst += EncodeFrame(static_cast<uint8_t>(i % 2 == 0 ? Opcode::kValidate
                                                         : Opcode::kStats),
                         i % 2 == 0 ? validate_payload : std::string());
  }
  ASSERT_TRUE(client.SendRaw(burst).ok());
  for (int i = 0; i < kN; ++i) {
    auto reply = client.RecvReply();
    ASSERT_TRUE(reply.ok()) << "reply " << i;
    ASSERT_EQ(reply->opcode, static_cast<uint8_t>(Opcode::kReplyOk));
    WireReader r(reply->payload);
    if (i % 2 == 0) {
      r.GetU64();  // version
      EXPECT_EQ(r.GetU64(), batch.size()) << "reply " << i;  // report.total
    } else {
      EXPECT_NE(std::string(r.GetStr()).find("uptime_ms="),
                std::string::npos);
    }
  }
}

TEST_F(ServerTest, BadHelloGetsErrorReplyAndClose) {
  // A raw socket speaking the wrong protocol: the server answers with one
  // kReplyError frame and closes — it never interprets any of the bytes as
  // a request.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char wrong[] = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_GT(::send(fd, wrong, sizeof(wrong) - 1, MSG_NOSIGNAL), 0);

  std::string received;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // server closed after flushing the error
    received.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);

  FrameDecoder dec(/*expect_hello=*/false);
  ASSERT_TRUE(dec.Feed(received).ok());
  Frame f;
  ASSERT_TRUE(dec.Next(&f));
  EXPECT_EQ(f.opcode, static_cast<uint8_t>(Opcode::kReplyError));
  EXPECT_GE(server_->protocol_errors(), 1u);
}

TEST_F(ServerTest, ZeroLengthFrameGetsErrorReplyAndClose) {
  Client client = Connected();
  // Zero-length frame: framing error -> one kReplyError, then close.
  ASSERT_TRUE(client.SendRaw(std::string(4, '\0')).ok());
  auto reply = client.RecvReply();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->opcode, static_cast<uint8_t>(Opcode::kReplyError));
  // The server closes after flushing the error.
  auto eof = client.RecvReply();
  EXPECT_FALSE(eof.ok());
}

TEST_F(ServerTest, OversizedFrameRejected) {
  ServerConfig cfg;
  cfg.max_frame_bytes = 1024;
  Server small(service_.get(), cfg);
  ASSERT_TRUE(small.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", small.port()).ok());
  WireWriter w;
  w.PutU32(4096);  // length prefix alone trips the cap
  ASSERT_TRUE(client.SendRaw(w.str()).ok());
  auto reply = client.RecvReply();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->opcode, static_cast<uint8_t>(Opcode::kReplyError));
  EXPECT_FALSE(client.RecvReply().ok());
  EXPECT_GE(small.protocol_errors(), 1u);
}

TEST_F(ServerTest, MalformedPayloadKeepsConnectionAlive) {
  Client client = Connected();
  // Valid framing, garbage payload: application error, connection stays.
  auto reply = client.Call(static_cast<uint8_t>(Opcode::kValidate), "xx");
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->opcode, static_cast<uint8_t>(Opcode::kReplyError));
  EXPECT_TRUE(client.Validate("a", Digits(5, 3)).ok());
}

TEST_F(ServerTest, UnknownOpcodeIsInvalidArgument) {
  Client client = Connected();
  auto reply = client.Call(0x42, "");
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->opcode, static_cast<uint8_t>(Opcode::kReplyError));
}

// ---------------------------------------------------------------------------
// Graceful drain.

TEST_F(ServerTest, ShutdownDrainsInFlightWork) {
  Client client = Connected();
  const auto batch = Digits(400, 3);
  WireWriter w;
  w.PutStr("a");
  w.PutValues(batch);
  // Queue real work, then SHUTDOWN, all pipelined in one burst: every
  // queued frame must still be answered, in order, before the close.
  std::string burst;
  constexpr int kWork = 8;
  for (int i = 0; i < kWork; ++i) {
    burst += EncodeFrame(static_cast<uint8_t>(Opcode::kValidate), w.str());
  }
  burst += EncodeFrame(static_cast<uint8_t>(Opcode::kShutdown), "");
  ASSERT_TRUE(client.SendRaw(burst).ok());

  for (int i = 0; i < kWork; ++i) {
    auto reply = client.RecvReply();
    ASSERT_TRUE(reply.ok()) << "reply " << i;
    EXPECT_EQ(reply->opcode, static_cast<uint8_t>(Opcode::kReplyOk));
  }
  auto ack = client.RecvReply();
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->opcode, static_cast<uint8_t>(Opcode::kReplyOk));

  server_->Join();  // the loop exits once everything is flushed
  EXPECT_TRUE(server_->draining());

  // New connections are refused after the drain.
  Client late;
  Status connect_st = late.Connect("127.0.0.1", server_->port());
  if (connect_st.ok()) {
    // The TCP connect may land in the backlog as the listener closes; the
    // request must then fail rather than be served.
    EXPECT_FALSE(late.Validate("a", Digits(5, 3)).ok());
  }
}

TEST_F(ServerTest, RequestDrainWithIdleConnectionsExits) {
  Client client = Connected();
  ASSERT_TRUE(client.Validate("a", Digits(5, 3)).ok());
  server_->RequestDrain();
  server_->Join();
  EXPECT_FALSE(client.Validate("a", Digits(5, 3)).ok());
}

// ---------------------------------------------------------------------------
// Generation consistency under concurrent warm swaps (acceptance criteria;
// the test TSan runs against the server's threading model).

TEST_F(ServerTest, WarmSwapNeverYieldsMixedGenerationResponses) {
  // Writer: swaps ALL columns between generation A (3-digit rules) and
  // generation B (6-digit rules) via UpsertBatch warm swaps, as fast as it
  // can. Clients: hammer VALIDATE_TABLE with a probe batch that generation
  // A accepts ("123") and generation B rejects. Every single response must
  // be internally uniform — all columns conforming or all nonconforming —
  // and carry one store_version.
  constexpr size_t kCols = 6;
  constexpr int kQueries = 60;
  std::vector<std::string> names;
  {
    std::vector<ValidationService::RuleUpdate> gen;
    for (size_t c = 0; c < kCols; ++c) {
      names.push_back("col" + std::to_string(c));
      gen.push_back({names.back(), DigitsRule(3), RuleMeta{}});
    }
    service_->UpsertBatch(std::move(gen));
  }

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    size_t width = 6;
    while (!stop.load(std::memory_order_acquire)) {
      std::vector<ValidationService::RuleUpdate> gen;
      gen.reserve(kCols);
      for (const std::string& name : names) {
        gen.push_back({name, DigitsRule(width), RuleMeta{}});
      }
      service_->UpsertBatch(std::move(gen));
      width = width == 3 ? 6 : 3;
    }
  });

  const std::vector<std::string> probe = {"123"};
  std::vector<std::pair<std::string, std::vector<std::string>>> table;
  for (const std::string& name : names) table.emplace_back(name, probe);

  std::atomic<int> mixed{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&] {
      Client client;
      ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
      for (int q = 0; q < kQueries; ++q) {
        auto reply = client.ValidateTable(table);
        ASSERT_TRUE(reply.ok()) << reply.status().ToString();
        ASSERT_EQ(reply->columns.size(), kCols);
        const uint64_t first = reply->columns[0].report.nonconforming;
        for (const auto& col : reply->columns) {
          if (!col.has_rule || col.report.nonconforming != first) {
            mixed.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  stop.store(true, std::memory_order_release);
  writer.join();
  EXPECT_EQ(mixed.load(), 0);
}

TEST_F(ServerTest, DrainDuringConcurrentTrafficAnswersEverything) {
  // Several clients pipeline work while the drain starts: every request
  // that got a connection must be answered or cleanly refused — no hangs,
  // no torn frames (RecvReply would return Corruption on a torn stream).
  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::atomic<int> answered{0};
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      Client client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) return;
      for (int q = 0; q < 50; ++q) {
        auto reply = client.Validate("a", Digits(20, 3));
        if (!reply.ok()) return;  // drained under us: fine
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Drain only once traffic flows: on a loaded host a fixed sleep could
  // start the drain before any client connects. The deadline bounds the
  // wait if no client is ever answered (the assertion below then fails).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (answered.load(std::memory_order_relaxed) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server_->RequestDrain();
  for (auto& t : threads) t.join();
  server_->Join();
  EXPECT_GT(answered.load(), 0);
}

// ---------------------------------------------------------------------------
// Slow-reader eviction (ServerConfig::max_outbox_bytes).

TEST(ServerEvictionTest, SlowReaderTripsOutboxCapAndIsEvicted) {
  ValidationService service(nullptr, AutoValidateOptions{},
                            /*num_train_threads=*/2);
  service.Upsert("a", DigitsRule(3));
  ServerConfig cfg;
  cfg.num_workers = 2;
  cfg.max_outbox_bytes = 64u << 10;  // tiny cap so the test trips it fast
  Server server(&service, cfg);
  ASSERT_TRUE(server.Start().ok());

  // A raw socket that floods requests and never reads a byte: replies pile
  // up in the kernel buffers (shrunk below), then in the connection's
  // outbox, which must hit the cap and evict — not grow without bound.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int rcvbuf = 4096;  // tiny receive window: server output backs up
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  // Each request carries five distinct 2 KiB non-conforming values, so
  // every reply echoes ~10 KiB of sample violations (validation dedups
  // identical violations, so the values must differ) — a handful of unread
  // replies overflow the cap once the kernel buffers are full.
  std::vector<std::string> values;
  for (char c = 'v'; c < 'v' + 5; ++c) values.emplace_back(2048, c);
  WireWriter w;
  w.PutStr("a");
  w.PutValues(values);
  const std::string request =
      std::string(kHello, kHelloSize) +
      EncodeFrame(static_cast<uint8_t>(Opcode::kValidate), w.str());

  // Flood with non-blocking sends until the server evicts us, a byte budget
  // is spent, or a deadline passes. How many replies the kernel absorbs
  // before the outbox grows depends on the host's TCP autotuning (send
  // buffers may grow to several MiB), so the flood is bounded by bytes far
  // above any such buffer rather than by a fixed frame count.
  constexpr size_t kFloodBudgetBytes = 256u << 20;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  size_t sent = 0;
  size_t offset = 0;  // within the current frame (the hello rides frame 0)
  std::string_view frame(request);
  bool send_failed = false;
  while (server.connections_evicted() == 0 && sent < kFloodBudgetBytes &&
         std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::send(fd, frame.data() + offset, frame.size() - offset,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        // Our send window is full: the server has stopped reading until it
        // drains replies. Give its loop a moment to notice the cap.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      // Sends fail once the server reaps the connection — that is the
      // success path, not an error.
      send_failed = true;
      break;
    }
    sent += static_cast<size_t>(n);
    offset += static_cast<size_t>(n);
    if (offset == frame.size()) {
      frame = std::string_view(request).substr(kHelloSize);
      offset = 0;
    }
  }
  while (server.connections_evicted() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.connections_evicted(), 1u)
      << "send_failed=" << send_failed;
  ::close(fd);

  // The eviction is per-connection: a well-behaved client still gets
  // served, and the stats endpoint reports the eviction.
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.Validate("a", Digits(5, 3)).ok());
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("connections_evicted=1"), std::string::npos)
      << *stats;
}

}  // namespace
}  // namespace av::net
