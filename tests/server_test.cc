// Network front-end contracts (DESIGN.md "Network serving"):
//  - the frame codec round-trips requests/responses bit-for-bit and turns
//    malformed payloads into typed statuses (with the request id recovered
//    whenever the truncated payload still carries it);
//  - TokenBucket and AdmissionQueue are deterministic: quotas, queue
//    capacity, strict priority order, deadline-infeasible shedding, runner
//    slots (claimed only when free, backlog wakes a waiter, PopBatch never
//    waits) and the draining handshake all behave exactly as specified;
//  - EtaService::EstimateBatch matches Estimate;
//  - a live DeepOdServer over a fleet of one answers valid requests with
//    the service's exact numbers under every wire network_id, answers
//    every protocol error with a typed frame while keeping the connection
//    usable, sheds over the wire with retry-after hints, serves its obs
//    registry (under the single-city stats names) through a stats frame,
//    and answers every in-flight request across a graceful shutdown;
//    departure times the serving clock cannot slot are invalid requests,
//    not a crash;
//  - a pipelined burst is one batch, concurrent pipelining clients each
//    get exactly their own answers, a client that stops reading is
//    disconnected without stalling the others, a client that half-closes
//    after pipelining still gets every answer, and at quiescence
//    admitted == completed + deadline_missed.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/deepod_model.h"
#include "serve/eta_service.h"
#include "serve/fleet_router.h"
#include "serve/server/admission.h"
#include "serve/server/frame.h"
#include "serve/server/loadgen.h"
#include "serve/server/server.h"
#include "sim/dataset.h"

namespace deepod {
namespace {

using namespace serve::net;

// --- Frame codec ------------------------------------------------------------

RequestFrame SampleRequest() {
  RequestFrame frame;
  frame.request_id = 0x0123456789abcdefull;
  frame.network_id = 5;  // any id reaches a fleet of one
  frame.tenant_id = 42;
  frame.priority = 2;
  frame.deadline_ms = 1500;
  frame.od.origin_segment = 7;
  frame.od.dest_segment = 31;
  frame.od.origin_ratio = 0.125;
  frame.od.dest_ratio = 0.875;
  frame.od.departure_time = 10.0 * 86400.0 + 8.0 * 3600.0 + 0.1;
  frame.od.weather_type = 3;
  return frame;
}

TEST(FrameCodec, RequestRoundTripsBitForBit) {
  const RequestFrame frame = SampleRequest();
  const std::vector<uint8_t> wire = EncodeRequestFrame(frame);
  ASSERT_EQ(wire.size(), 4 + kRequestPayloadBytes);
  RequestFrame back;
  ASSERT_EQ(DecodeRequestPayload(wire.data() + 4, wire.size() - 4, &back),
            Status::kOk);
  EXPECT_EQ(back.request_id, frame.request_id);
  EXPECT_EQ(back.network_id, frame.network_id);
  EXPECT_EQ(back.tenant_id, frame.tenant_id);
  EXPECT_EQ(back.priority, frame.priority);
  EXPECT_EQ(back.deadline_ms, frame.deadline_ms);
  EXPECT_EQ(back.od.origin_segment, frame.od.origin_segment);
  EXPECT_EQ(back.od.dest_segment, frame.od.dest_segment);
  EXPECT_EQ(std::memcmp(&back.od.origin_ratio, &frame.od.origin_ratio,
                        sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(&back.od.departure_time, &frame.od.departure_time,
                        sizeof(double)),
            0);
  EXPECT_EQ(back.od.weather_type, frame.od.weather_type);
}

TEST(FrameCodec, NegativeDeadlineSurvivesTheWire) {
  RequestFrame frame = SampleRequest();
  frame.deadline_ms = -7;
  const std::vector<uint8_t> wire = EncodeRequestFrame(frame);
  RequestFrame back;
  ASSERT_EQ(DecodeRequestPayload(wire.data() + 4, wire.size() - 4, &back),
            Status::kOk);
  EXPECT_EQ(back.deadline_ms, -7);
}

TEST(FrameCodec, ResponseRoundTripsBitForBit) {
  ResponseFrame frame;
  frame.request_id = 99;
  frame.status = Status::kShedQuota;
  frame.estimator = Estimator::kLinkMean;
  frame.retry_after_ms = 250;
  frame.eta_seconds = 123.456789;
  const std::vector<uint8_t> wire = EncodeResponseFrame(frame);
  ASSERT_EQ(wire.size(), 4 + kResponsePayloadBytes);
  ResponseFrame back;
  ASSERT_TRUE(DecodeResponsePayload(wire.data() + 4, wire.size() - 4, &back));
  EXPECT_EQ(back.request_id, frame.request_id);
  EXPECT_EQ(back.status, frame.status);
  EXPECT_EQ(back.estimator, frame.estimator);
  EXPECT_EQ(back.retry_after_ms, frame.retry_after_ms);
  EXPECT_EQ(
      std::memcmp(&back.eta_seconds, &frame.eta_seconds, sizeof(double)), 0);
}

TEST(FrameCodec, V1SizedRequestPayloadIsBadFrame) {
  // A v1 client's request is exactly 4 bytes (network_id) shorter; it must
  // decode as kBadFrame — with the id recovered — not as a garbled request.
  const std::vector<uint8_t> wire = EncodeRequestFrame(SampleRequest());
  RequestFrame back;
  EXPECT_EQ(
      DecodeRequestPayload(wire.data() + 4, kRequestPayloadBytes - 4, &back),
      Status::kBadFrame);
  EXPECT_EQ(back.request_id, SampleRequest().request_id);
}

TEST(FrameCodec, TruncatedPayloadRecoversRequestId) {
  const std::vector<uint8_t> wire = EncodeRequestFrame(SampleRequest());
  // Magic + request id survive; everything after is cut off.
  RequestFrame back;
  EXPECT_EQ(DecodeRequestPayload(wire.data() + 4, 12, &back),
            Status::kBadFrame);
  EXPECT_EQ(back.request_id, SampleRequest().request_id);
}

TEST(FrameCodec, TooShortForAnIdIsStillBadFrame) {
  const std::vector<uint8_t> wire = EncodeRequestFrame(SampleRequest());
  RequestFrame back;
  EXPECT_EQ(DecodeRequestPayload(wire.data() + 4, 6, &back),
            Status::kBadFrame);
  EXPECT_EQ(back.request_id, 0u);
}

TEST(FrameCodec, UnknownMagicIsBadMagic) {
  std::vector<uint8_t> wire = EncodeRequestFrame(SampleRequest());
  wire[4] ^= 0xff;  // corrupt the magic, keep the length
  RequestFrame back;
  EXPECT_EQ(DecodeRequestPayload(wire.data() + 4, wire.size() - 4, &back),
            Status::kBadMagic);
}

// --- TokenBucket ------------------------------------------------------------

TEST(TokenBucket, RateZeroIsAHardCap) {
  TokenBucket bucket(0.0, 2.0);
  EXPECT_TRUE(bucket.TryTake(0.0));
  EXPECT_TRUE(bucket.TryTake(100.0));
  EXPECT_FALSE(bucket.TryTake(1e6));  // never refills
  EXPECT_GT(bucket.SecondsUntilNextToken(1e6), 3599.0);
}

TEST(TokenBucket, RefillsAtTheConfiguredRate) {
  TokenBucket bucket(10.0, 1.0);  // one token per 100ms, burst 1
  EXPECT_TRUE(bucket.TryTake(0.0));
  EXPECT_FALSE(bucket.TryTake(0.05));
  EXPECT_NEAR(bucket.SecondsUntilNextToken(0.05), 0.05, 1e-9);
  EXPECT_TRUE(bucket.TryTake(0.11));
}

// --- AdmissionQueue ---------------------------------------------------------

AdmittedRequest MakeAdmitted(uint8_t priority, int32_t deadline_ms = 0,
                             uint32_t tenant_id = 0) {
  AdmittedRequest request;
  request.frame = SampleRequest();
  request.frame.priority = priority;
  request.frame.deadline_ms = deadline_ms;
  request.frame.tenant_id = tenant_id;
  request.arrival = std::chrono::steady_clock::now();
  request.deadline =
      deadline_ms > 0
          ? request.arrival + std::chrono::milliseconds(deadline_ms)
          : std::chrono::steady_clock::time_point::max();
  return request;
}

TEST(AdmissionQueue, ShedsAtCapacityWithARetryHint) {
  AdmissionOptions options;
  options.queue_capacity = 2;
  AdmissionQueue queue(options);
  EXPECT_EQ(queue.Offer(MakeAdmitted(1)).status, Status::kOk);
  EXPECT_EQ(queue.Offer(MakeAdmitted(1)).status, Status::kOk);
  const AdmitDecision shed = queue.Offer(MakeAdmitted(1));
  EXPECT_EQ(shed.status, Status::kShedQueueFull);
  EXPECT_GE(shed.retry_after_ms, 1u);
  EXPECT_EQ(queue.Depth(), 2u);
}

TEST(AdmissionQueue, TenantQuotaAndUnknownTenant) {
  AdmissionOptions options;
  options.num_tenants = 1;
  options.tenant_rate = 0.0;  // hard cap at the burst
  options.tenant_burst = 2.0;
  AdmissionQueue queue(options);
  EXPECT_EQ(queue.Offer(MakeAdmitted(1)).status, Status::kOk);
  EXPECT_EQ(queue.Offer(MakeAdmitted(1)).status, Status::kOk);
  const AdmitDecision shed = queue.Offer(MakeAdmitted(1));
  EXPECT_EQ(shed.status, Status::kShedQuota);
  EXPECT_GE(shed.retry_after_ms, 1u);
  EXPECT_EQ(queue.Offer(MakeAdmitted(1, 0, /*tenant_id=*/5)).status,
            Status::kUnknownTenant);
}

TEST(AdmissionQueue, PopsInStrictPriorityOrder) {
  AdmissionQueue queue(AdmissionOptions{});
  EXPECT_EQ(queue.Offer(MakeAdmitted(2)).status, Status::kOk);
  EXPECT_EQ(queue.Offer(MakeAdmitted(0)).status, Status::kOk);
  EXPECT_EQ(queue.Offer(MakeAdmitted(1)).status, Status::kOk);
  std::vector<AdmittedRequest> batch;
  ASSERT_TRUE(queue.PopBatch(8, &batch));
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].frame.priority, 0);
  EXPECT_EQ(batch[1].frame.priority, 1);
  EXPECT_EQ(batch[2].frame.priority, 2);
}

TEST(AdmissionQueue, ShedsDeadlinesTheBacklogCannotMeet) {
  AdmissionQueue queue(AdmissionOptions{});
  // Executor feedback: one second per request. With one request already
  // queued, a 10ms deadline is infeasible; no deadline is always feasible.
  queue.RecordServiceTime(1.0);
  EXPECT_DOUBLE_EQ(queue.EwmaServiceSeconds(), 1.0);
  EXPECT_EQ(queue.Offer(MakeAdmitted(1)).status, Status::kOk);
  const AdmitDecision shed = queue.Offer(MakeAdmitted(1, /*deadline_ms=*/10));
  EXPECT_EQ(shed.status, Status::kShedDeadline);
  EXPECT_GE(shed.retry_after_ms, 1u);
  EXPECT_EQ(queue.Offer(MakeAdmitted(1, /*deadline_ms=*/0)).status,
            Status::kOk);
}

TEST(AdmissionQueue, DrainingAnswersShuttingDownAndEmptiesTheBacklog) {
  AdmissionQueue queue(AdmissionOptions{});
  EXPECT_EQ(queue.Offer(MakeAdmitted(1)).status, Status::kOk);
  EXPECT_EQ(queue.Offer(MakeAdmitted(0)).status, Status::kOk);
  queue.SetDraining();
  EXPECT_EQ(queue.Offer(MakeAdmitted(1)).status, Status::kShuttingDown);
  std::vector<AdmittedRequest> batch;
  EXPECT_TRUE(queue.PopBatch(1, &batch));  // backlog still drains
  EXPECT_TRUE(queue.PopBatch(1, &batch));
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_FALSE(queue.PopBatch(1, &batch));  // drained + empty -> done
}

TEST(AdmissionQueue, EwmaSmoothsServiceTimes) {
  AdmissionQueue queue(AdmissionOptions{});
  queue.RecordServiceTime(1.0);
  queue.RecordServiceTime(2.0);  // 0.8 * 1.0 + 0.2 * 2.0
  EXPECT_NEAR(queue.EwmaServiceSeconds(), 1.2, 1e-12);
}

TEST(AdmissionQueue, OfferClaimsARunnerSlotOnlyWhenOneIsFree) {
  AdmissionQueue queue(AdmissionOptions{}, /*runner_slots=*/2);
  const AdmitDecision first = queue.Offer(MakeAdmitted(1), true);
  const AdmitDecision second = queue.Offer(MakeAdmitted(1), true);
  ASSERT_TRUE(first.runner_slot.has_value());
  ASSERT_TRUE(second.runner_slot.has_value());
  EXPECT_NE(*first.runner_slot, *second.runner_slot);
  // Both slots held: still admitted, but nothing to claim.
  const AdmitDecision third = queue.Offer(MakeAdmitted(1), true);
  EXPECT_EQ(third.status, Status::kOk);
  EXPECT_FALSE(third.runner_slot.has_value());
  queue.ReleaseSlot(*first.runner_slot);
  // Without a claim a free slot stays free; with one it is handed out.
  EXPECT_FALSE(queue.Offer(MakeAdmitted(1)).runner_slot.has_value());
  const AdmitDecision fifth = queue.Offer(MakeAdmitted(1), true);
  ASSERT_TRUE(fifth.runner_slot.has_value());
  EXPECT_EQ(*fifth.runner_slot, *first.runner_slot);
  // A shed offer never takes a slot.
  AdmissionOptions full;
  full.queue_capacity = 0;
  AdmissionQueue shedding(full);
  const AdmitDecision shed = shedding.Offer(MakeAdmitted(1), true);
  EXPECT_EQ(shed.status, Status::kShedQueueFull);
  EXPECT_FALSE(shed.runner_slot.has_value());
}

TEST(AdmissionQueue, PopBatchOnAnEmptyQueueReturnsAtOnce) {
  AdmissionQueue queue(AdmissionOptions{});
  auto popped = std::async(std::launch::async, [&queue] {
    std::vector<AdmittedRequest> batch;
    return queue.PopBatch(8, &batch);
  });
  ASSERT_EQ(popped.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_FALSE(popped.get());
}

TEST(AdmissionQueue, ReturningASlotWithBacklogWakesAWaiter) {
  AdmissionQueue queue(AdmissionOptions{}, /*runner_slots=*/1);
  const AdmitDecision held = queue.Offer(MakeAdmitted(1), true);
  ASSERT_TRUE(held.runner_slot.has_value());
  EXPECT_EQ(queue.Offer(MakeAdmitted(1), true).status, Status::kOk);
  auto waiter =
      std::async(std::launch::async, [&queue] { return queue.AwaitSlot(); });
  // Work is queued but the only slot is held: the waiter keeps sleeping.
  EXPECT_EQ(waiter.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  std::vector<AdmittedRequest> batch;
  ASSERT_TRUE(queue.PopBatch(1, &batch));  // one batch per claim
  EXPECT_EQ(queue.Depth(), 1u);
  queue.ReleaseSlot(*held.runner_slot);  // backlog left: wakes the waiter
  if (waiter.wait_for(std::chrono::seconds(10)) !=
      std::future_status::ready) {
    // Release the stranded waiter so the test fails instead of hanging.
    queue.SetDraining();
    queue.PopBatch(8, &batch);
    FAIL() << "returning the slot with backlog left woke nobody";
  }
  const std::optional<size_t> slot = waiter.get();
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(*slot, *held.runner_slot);
  ASSERT_TRUE(queue.PopBatch(1, &batch));
  EXPECT_EQ(batch.size(), 2u);
  queue.ReleaseSlot(*slot);
}

TEST(AdmissionQueue, DrainWaitsForHeldSlots) {
  AdmissionQueue queue(AdmissionOptions{}, /*runner_slots=*/1);
  const AdmitDecision held = queue.Offer(MakeAdmitted(1), true);
  ASSERT_TRUE(held.runner_slot.has_value());
  EXPECT_EQ(queue.Offer(MakeAdmitted(1), true).status, Status::kOk);
  queue.SetDraining();
  auto drained =
      std::async(std::launch::async, [&queue] { queue.AwaitDrained(); });
  auto backlog =
      std::async(std::launch::async, [&queue] { return queue.AwaitSlot(); });
  EXPECT_EQ(drained.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);  // backlog left
  std::vector<AdmittedRequest> batch;
  ASSERT_TRUE(queue.PopBatch(8, &batch));
  EXPECT_EQ(batch.size(), 2u);
  // Queue empty while draining: the backlog thread is released...
  ASSERT_EQ(backlog.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_FALSE(backlog.get().has_value());
  // ...but the drain still waits for the holder's batch to finish.
  EXPECT_EQ(drained.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  queue.ReleaseSlot(*held.runner_slot);
  ASSERT_EQ(drained.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
}

// --- EtaService: EstimateBatch ----------------------------------------------

const sim::Dataset& TinyDataset() {
  static const sim::Dataset* dataset = [] {
    sim::DatasetConfig config;
    config.city = road::XianSimConfig();
    config.city.rows = 6;
    config.city.cols = 6;
    config.trips_per_day = 12;
    config.num_days = 15;
    config.seed = 23;
    return new sim::Dataset(sim::BuildDataset(config));
  }();
  return *dataset;
}

core::DeepOdModel& TinyInferenceModel() {
  static core::DeepOdModel* model = [] {
    core::DeepOdConfig config = core::DeepOdConfig().Scaled(16);
    config.epochs = 1;
    config.batch_size = 8;
    auto* m = new core::DeepOdModel(config, TinyDataset());
    m->SetTraining(false);
    return m;
  }();
  return *model;
}

std::vector<traj::OdInput> SampleOds(size_t n) {
  const auto& trips = TinyDataset().test.empty() ? TinyDataset().train
                                                 : TinyDataset().test;
  std::vector<traj::OdInput> ods;
  for (size_t i = 0; i < n; ++i) {
    traj::OdInput od = trips[i % trips.size()].od;
    od.departure_time = 10.0 * 86400.0 + 8.0 * 3600.0 + 60.0 * double(i);
    ods.push_back(od);
  }
  return ods;
}

TEST(EtaServiceEstimateBatch, MatchesEstimate) {
  serve::EtaService batched(TinyInferenceModel(), serve::EtaServiceOptions{});
  serve::EtaService single(TinyInferenceModel(), serve::EtaServiceOptions{});
  const auto ods = SampleOds(16);
  const std::vector<double> answers =
      batched.EstimateBatch({ods.data(), ods.size()});
  ASSERT_EQ(answers.size(), ods.size());
  for (size_t i = 0; i < ods.size(); ++i) {
    EXPECT_EQ(answers[i], single.Estimate(ods[i])) << "query " << i;
  }
  // A second pass reuses the stored external codes: same numbers.
  const std::vector<double> again =
      batched.EstimateBatch({ods.data(), ods.size()});
  EXPECT_EQ(again, answers);
}

// --- Live server over a real socket -----------------------------------------

class ServerTest : public ::testing::Test {
 protected:
  // Starts a server with `mutate` applied to the default options and
  // connects a client to it.
  void StartServer(void (*mutate)(ServerOptions*) = nullptr) {
    // A fleet of one around the borrowed model. The network is not owned:
    // the static dataset outlives every router.
    router_ = std::make_unique<serve::FleetRouter>(
        serve::BorrowServingState(TinyInferenceModel()),
        std::shared_ptr<const road::RoadNetwork>(
            std::shared_ptr<const road::RoadNetwork>(),
            &TinyDataset().network),
        serve::FleetRouterOptions{});
    service_ = router_->shards().front()->service();
    ServerOptions options;
    if (mutate != nullptr) mutate(&options);
    server_ = std::make_unique<DeepOdServer>(*router_, options);
    server_->Start();
    ASSERT_TRUE(client_.Connect("127.0.0.1", server_->port()));
  }

  // Sends a valid request and expects the service's exact answer.
  void ExpectOkRoundTrip(uint64_t request_id) {
    const auto ods = SampleOds(1);
    RequestFrame request;
    request.request_id = request_id;
    request.od = ods[0];
    ASSERT_TRUE(client_.Send(request));
    ResponseFrame response;
    ASSERT_TRUE(client_.ReadResponse(&response));
    EXPECT_EQ(response.request_id, request_id);
    EXPECT_EQ(response.status, Status::kOk);
    EXPECT_EQ(response.eta_seconds, service_->Estimate(ods[0]));
  }

  // Sends raw wire bytes (length prefix included).
  void SendRaw(const std::vector<uint8_t>& wire) {
    ASSERT_TRUE(WriteAll(client_.fd(), wire.data(), wire.size()));
  }

  // A server/ counter (or a histogram's count) from the registry.
  uint64_t Count(const std::string& name) const {
    for (const obs::Record& record : server_->registry().Export(name)) {
      if (record.name == name) {
        return static_cast<uint64_t>(record.count.value_or(0.0));
      }
    }
    return 0;
  }

  // The single-city stats identity, checked at quiescence: after a
  // graceful shutdown every admitted request was answered and every
  // connection thread is gone, so admitted = completed + deadline_missed.
  void ExpectAdmittedReconciles() {
    server_->Shutdown();
    EXPECT_EQ(Count("server/admitted"),
              Count("server/completed") + Count("server/deadline_missed"));
  }

  std::unique_ptr<serve::FleetRouter> router_;
  std::shared_ptr<serve::EtaService> service_;  // the shard's
  std::unique_ptr<DeepOdServer> server_;
  Client client_;
};

TEST_F(ServerTest, AnswersWithTheServiceNumbers) {
  StartServer();
  ExpectOkRoundTrip(1);
  ExpectOkRoundTrip(2);  // stored external codes, same contract
}

TEST_F(ServerTest, TruncatedFrameGetsTypedErrorAndConnectionSurvives) {
  StartServer();
  std::vector<uint8_t> wire = EncodeRequestFrame(SampleRequest());
  // Re-declare the length as 12 and send only magic + id.
  std::vector<uint8_t> truncated(wire.begin(), wire.begin() + 4 + 12);
  truncated[0] = 12;
  truncated[1] = truncated[2] = truncated[3] = 0;
  SendRaw(truncated);
  ResponseFrame response;
  ASSERT_TRUE(client_.ReadResponse(&response));
  EXPECT_EQ(response.status, Status::kBadFrame);
  EXPECT_EQ(response.request_id, SampleRequest().request_id);
  ExpectOkRoundTrip(3);
}

TEST_F(ServerTest, OversizedFrameGetsTypedErrorAndConnectionSurvives) {
  StartServer();
  const uint32_t declared = kMaxInboundFrameBytes + 1000;
  std::vector<uint8_t> wire(4 + declared, 0xab);
  wire[0] = static_cast<uint8_t>(declared & 0xff);
  wire[1] = static_cast<uint8_t>((declared >> 8) & 0xff);
  wire[2] = static_cast<uint8_t>((declared >> 16) & 0xff);
  wire[3] = static_cast<uint8_t>((declared >> 24) & 0xff);
  SendRaw(wire);
  ResponseFrame response;
  ASSERT_TRUE(client_.ReadResponse(&response));
  EXPECT_EQ(response.status, Status::kFrameTooLarge);
  ExpectOkRoundTrip(4);
}

TEST_F(ServerTest, FramesSplitAcrossReadsAreReassembled) {
  StartServer();
  timeval patience{10, 0};  // a lost piece fails the test, not hangs it
  ASSERT_EQ(::setsockopt(client_.fd(), SOL_SOCKET, SO_RCVTIMEO, &patience,
                         sizeof(patience)),
            0);
  const auto ods = SampleOds(2);
  RequestFrame request;
  request.request_id = 21;
  request.od = ods[0];
  std::vector<uint8_t> wire = EncodeRequestFrame(request);
  // An oversized frame arriving in pieces, then a request split inside
  // its length prefix and again inside its payload.
  const uint32_t declared = kMaxInboundFrameBytes + 1000;
  std::vector<uint8_t> oversized(4 + declared, 0xab);
  for (int i = 0; i < 4; ++i) {
    oversized[i] = static_cast<uint8_t>((declared >> (8 * i)) & 0xff);
  }
  std::vector<uint8_t> stream = oversized;
  stream.insert(stream.end(), wire.begin(), wire.end());
  size_t sent = 0;
  for (const size_t cut : {size_t{3}, size_t{2000}, oversized.size() + 2,
                           oversized.size() + 30, stream.size()}) {
    // Pauses so each piece reaches the server's reader as its own recv.
    SendRaw(std::vector<uint8_t>(stream.begin() + sent, stream.begin() + cut));
    sent = cut;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ResponseFrame response;
  ASSERT_TRUE(client_.ReadResponse(&response));
  EXPECT_EQ(response.status, Status::kFrameTooLarge);
  ASSERT_TRUE(client_.ReadResponse(&response));
  EXPECT_EQ(response.request_id, 21u);
  EXPECT_EQ(response.status, Status::kOk);
  EXPECT_EQ(response.eta_seconds, service_->Estimate(ods[0]));
  ExpectOkRoundTrip(22);
}

TEST_F(ServerTest, BadMagicGetsTypedErrorAndConnectionSurvives) {
  StartServer();
  std::vector<uint8_t> wire = EncodeRequestFrame(SampleRequest());
  wire[4] ^= 0xff;
  SendRaw(wire);
  ResponseFrame response;
  ASSERT_TRUE(client_.ReadResponse(&response));
  EXPECT_EQ(response.status, Status::kBadMagic);
  ExpectOkRoundTrip(5);
}

TEST_F(ServerTest, ExpiredDeadlineIsAnsweredWithoutQueueing) {
  StartServer();
  RequestFrame request = SampleRequest();
  request.request_id = 6;
  request.od = SampleOds(1)[0];
  request.deadline_ms = -1;
  ASSERT_TRUE(client_.Send(request));
  ResponseFrame response;
  ASSERT_TRUE(client_.ReadResponse(&response));
  EXPECT_EQ(response.request_id, 6u);
  EXPECT_EQ(response.status, Status::kDeadlineExpired);
  ExpectOkRoundTrip(7);
  ExpectAdmittedReconciles();
  EXPECT_EQ(Count("server/expired_on_arrival"), 1u);
  EXPECT_EQ(Count("server/admitted"), 1u);
}

TEST_F(ServerTest, OutOfRangeSegmentIsInvalid) {
  StartServer();
  RequestFrame request = SampleRequest();
  request.request_id = 8;
  request.od = SampleOds(1)[0];
  request.od.dest_segment = 1u << 30;  // far outside the tiny network
  ASSERT_TRUE(client_.Send(request));
  ResponseFrame response;
  ASSERT_TRUE(client_.ReadResponse(&response));
  EXPECT_EQ(response.status, Status::kInvalidRequest);
  ExpectOkRoundTrip(9);
}

TEST_F(ServerTest, UnservableDepartureTimeIsInvalid) {
  // Before the serving clock's t0 the slotter throws; past kMaxTimestamp
  // the slot casts overflow. Either used to abort the executor thread.
  StartServer();
  uint64_t id = 100;
  for (const double departure : {-1.0, 1e300}) {
    RequestFrame request = SampleRequest();
    request.request_id = ++id;
    request.od = SampleOds(1)[0];
    request.od.departure_time = departure;
    ASSERT_TRUE(client_.Send(request));
    ResponseFrame response;
    ASSERT_TRUE(client_.ReadResponse(&response));
    EXPECT_EQ(response.request_id, id);
    EXPECT_EQ(response.status, Status::kInvalidRequest) << departure;

    ObserveFrame observe;
    observe.request_id = ++id;
    observe.od = request.od;
    observe.actual_seconds = 600.0;
    SendRaw(EncodeObserveFrame(observe));
    ASSERT_TRUE(client_.ReadResponse(&response));
    EXPECT_EQ(response.request_id, id);
    EXPECT_EQ(response.status, Status::kInvalidRequest) << departure;
  }
  ExpectOkRoundTrip(++id);
}

TEST_F(ServerTest, UnknownTenantIsRejected) {
  StartServer(+[](ServerOptions* options) {
    options->admission.num_tenants = 2;
  });
  RequestFrame request = SampleRequest();
  request.request_id = 10;
  request.od = SampleOds(1)[0];
  request.tenant_id = 7;
  ASSERT_TRUE(client_.Send(request));
  ResponseFrame response;
  ASSERT_TRUE(client_.ReadResponse(&response));
  EXPECT_EQ(response.status, Status::kUnknownTenant);
  request.request_id = 11;
  request.tenant_id = 1;
  ASSERT_TRUE(client_.Send(request));
  ASSERT_TRUE(client_.ReadResponse(&response));
  EXPECT_EQ(response.status, Status::kOk);
}

TEST_F(ServerTest, QuotaShedsOverTheWireWithARetryHint) {
  StartServer(+[](ServerOptions* options) {
    options->admission.num_tenants = 1;
    options->admission.tenant_rate = 0.0;  // hard cap
    options->admission.tenant_burst = 2.0;
  });
  const auto ods = SampleOds(1);
  uint64_t shed_count = 0;
  for (uint64_t id = 1; id <= 3; ++id) {
    RequestFrame request;
    request.request_id = id;
    request.od = ods[0];
    ASSERT_TRUE(client_.Send(request));
    ResponseFrame response;
    ASSERT_TRUE(client_.ReadResponse(&response));
    if (response.status == Status::kShedQuota) {
      ++shed_count;
      EXPECT_GE(response.retry_after_ms, 1u);
    } else {
      EXPECT_EQ(response.status, Status::kOk);
    }
  }
  EXPECT_EQ(shed_count, 1u);
}

TEST_F(ServerTest, GracefulShutdownAnswersEveryPipelinedRequest) {
  StartServer();
  const auto ods = SampleOds(8);
  for (uint64_t id = 0; id < 8; ++id) {
    RequestFrame request;
    request.request_id = id + 1;
    request.od = ods[id];
    ASSERT_TRUE(client_.Send(request));
  }
  std::thread shutdown([this] { server_->Shutdown(); });
  size_t answered = 0;
  ResponseFrame response;
  while (answered < 8 && client_.ReadResponse(&response)) {
    // Every pipelined request is answered: either served before the drain
    // finished or refused with kShuttingDown — never silently dropped.
    EXPECT_TRUE(response.status == Status::kOk ||
                response.status == Status::kShuttingDown)
        << StatusName(response.status);
    ++answered;
  }
  shutdown.join();
  EXPECT_EQ(answered, 8u);
}

TEST_F(ServerTest, StatsFrameServesTheObsRegistry) {
  StartServer();
  ExpectOkRoundTrip(12);
  const std::string json = client_.FetchStatsJson();
  EXPECT_NE(json.find("server/requests"), std::string::npos);
  // A fleet of one keeps the single-city names: the shard's service
  // exports "serve/*" and its counters "fleet/*", with no city segment.
  for (const char* name : {"\"server/admitted\"", "\"serve/epoch\"",
                           "\"serve/requests\"", "\"fleet/model_answers\""}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
}

TEST_F(ServerTest, FleetOfOneAnswersEveryWireIdWithTheSameBits) {
  StartServer();
  const traj::OdInput od = SampleOds(1)[0];
  const double expected = service_->Estimate(od);
  uint64_t id = 0;
  for (const uint32_t network_id : {0u, 1u, 7u}) {
    RequestFrame request;
    request.request_id = ++id;
    request.network_id = network_id;
    request.od = od;
    ASSERT_TRUE(client_.Send(request));
    ResponseFrame response;
    ASSERT_TRUE(client_.ReadResponse(&response));
    EXPECT_EQ(response.request_id, id);
    ASSERT_EQ(response.status, Status::kOk) << "network_id " << network_id;
    EXPECT_EQ(response.estimator, Estimator::kModel);
    EXPECT_EQ(std::memcmp(&response.eta_seconds, &expected, sizeof(double)),
              0)
        << "network_id " << network_id;
  }
}

TEST_F(ServerTest, LoadgenDrivesTheServerWithoutLosses) {
  StartServer(+[](ServerOptions* options) { options->executors = 2; });
  LoadgenOptions load;
  load.port = server_->port();
  load.qps = 100.0;
  load.duration_seconds = 0.5;
  load.connections = 2;
  load.num_segments = TinyDataset().network.num_segments();
  load.fetch_server_stats = true;
  const LoadgenReport report = RunLoadgen(load);
  EXPECT_GT(report.sent, 0u);
  EXPECT_EQ(report.lost, 0u);
  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(report.ok + report.shed + report.deadline_expired, report.sent);
  EXPECT_NE(report.server_stats_json.find("server/completed"),
            std::string::npos);
  ExpectAdmittedReconciles();
}

TEST(LoadgenOptionsTest, UnusableRateOrDurationIsRejectedBeforeConnecting) {
  // Nothing listens on port 0, so options that pass validation fail to
  // connect with std::runtime_error; std::invalid_argument means the run
  // was refused first. A duration of 1e300 s or infinity used to overflow
  // the double-to-ticks cast of the send deadline.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  LoadgenOptions load;
  load.port = 0;
  load.num_segments = 4;
  for (const double duration : {inf, -inf, nan, 1e300, 1e10, 0.0, -1.0}) {
    load.duration_seconds = duration;
    EXPECT_THROW(RunLoadgen(load), std::invalid_argument)
        << "duration " << duration;
  }
  load.duration_seconds = 1.0;
  for (const double qps : {inf, nan, 0.0, -5.0}) {
    load.qps = qps;
    EXPECT_THROW(RunLoadgen(load), std::invalid_argument) << "qps " << qps;
  }
  load.qps = 1e300;
  load.duration_seconds = 1e9;  // ~31 years: fits the clock
  EXPECT_THROW(RunLoadgen(load), std::runtime_error);
}

TEST_F(ServerTest, PipelinedBurstIsAnsweredAsOneBatch) {
  StartServer();
  constexpr size_t kBurst = 32;  // = the default max_batch
  const auto ods = SampleOds(kBurst);
  std::vector<uint8_t> burst;
  for (size_t i = 0; i < kBurst; ++i) {
    RequestFrame request;
    request.request_id = i + 1;
    request.od = ods[i];
    const std::vector<uint8_t> wire = EncodeRequestFrame(request);
    burst.insert(burst.end(), wire.begin(), wire.end());
  }
  SendRaw(burst);  // one write: the server reads it with one recv
  std::vector<double> served(kBurst, -1.0);
  for (size_t n = 0; n < kBurst; ++n) {
    ResponseFrame response;
    ASSERT_TRUE(client_.ReadResponse(&response));
    ASSERT_EQ(response.status, Status::kOk);
    ASSERT_GE(response.request_id, 1u);
    ASSERT_LE(response.request_id, kBurst);
    served[response.request_id - 1] = response.eta_seconds;
  }
  for (size_t i = 0; i < kBurst; ++i) {
    EXPECT_EQ(served[i], service_->Estimate(ods[i])) << "request " << i;
  }
  const std::vector<obs::Record> fill =
      server_->registry().Export("server/batch_fill");
  ASSERT_EQ(fill.size(), 1u);
  EXPECT_EQ(fill[0].count.value_or(0.0), 1.0);
  EXPECT_EQ(fill[0].wall_seconds, static_cast<double>(kBurst));
  ExpectAdmittedReconciles();
}

// A client pipelines a burst far larger than one batch in one write and
// half-closes its side at once. The reader sees EOF while most of the
// burst is still queued; those answers must still reach the client.
TEST_F(ServerTest, HalfClosedPeerGetsEveryAnswer) {
  StartServer();
  constexpr size_t kBurst = 500;  // ~16 batches of the default 32
  const auto ods = SampleOds(kBurst);
  std::vector<uint8_t> burst;
  for (size_t i = 0; i < kBurst; ++i) {
    RequestFrame request;
    request.request_id = i + 1;
    request.od = ods[i];
    const std::vector<uint8_t> wire = EncodeRequestFrame(request);
    burst.insert(burst.end(), wire.begin(), wire.end());
  }
  SendRaw(burst);
  ASSERT_EQ(::shutdown(client_.fd(), SHUT_WR), 0);
  timeval patience{10, 0};  // a lost answer fails the test, not hangs it
  ASSERT_EQ(::setsockopt(client_.fd(), SOL_SOCKET, SO_RCVTIMEO, &patience,
                         sizeof(patience)),
            0);
  std::vector<bool> answered(kBurst, false);
  size_t ok = 0;
  ResponseFrame response;
  while (client_.ReadResponse(&response)) {
    ASSERT_GE(response.request_id, 1u);
    ASSERT_LE(response.request_id, kBurst);
    EXPECT_FALSE(answered[response.request_id - 1]);
    answered[response.request_id - 1] = true;
    ok += response.status == Status::kOk;
  }
  EXPECT_EQ(ok, kBurst);
  ExpectAdmittedReconciles();
  EXPECT_EQ(Count("server/completed"), kBurst);
  EXPECT_EQ(Count("server/dropped_responses"), 0u);
}

// 8 clients pipeline 200 distinct requests each in one write; every answer
// comes back Ok, on the right connection, with the service's exact ETA.
void ExpectConcurrentPipelinedClientsServed(
    uint16_t port, serve::EtaService& service) {
  constexpr size_t kClients = 8;
  constexpr size_t kPerClient = 200;
  const auto ods = SampleOds(kClients * kPerClient);
  std::vector<std::vector<double>> served(
      kClients, std::vector<double>(kPerClient, -1.0));
  std::atomic<size_t> failures{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client;
      if (!client.Connect("127.0.0.1", port)) {
        ++failures;
        return;
      }
      std::vector<uint8_t> wire;
      for (size_t i = 0; i < kPerClient; ++i) {
        RequestFrame request;
        request.request_id = c * kPerClient + i + 1;
        request.od = ods[c * kPerClient + i];
        const std::vector<uint8_t> frame = EncodeRequestFrame(request);
        wire.insert(wire.end(), frame.begin(), frame.end());
      }
      if (!WriteAll(client.fd(), wire.data(), wire.size())) {
        ++failures;
        return;
      }
      for (size_t n = 0; n < kPerClient; ++n) {
        ResponseFrame response;
        if (!client.ReadResponse(&response) ||
            response.status != Status::kOk ||
            (response.request_id - 1) / kPerClient != c) {
          ++failures;
          return;
        }
        served[c][(response.request_id - 1) % kPerClient] =
            response.eta_seconds;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0u);
  for (size_t c = 0; c < kClients; ++c) {
    for (size_t i = 0; i < kPerClient; ++i) {
      EXPECT_EQ(served[c][i], service.Estimate(ods[c * kPerClient + i]))
          << "client " << c << " request " << i;
    }
  }
}

TEST_F(ServerTest, ConcurrentPipelinedClientsOneExecutor) {
  StartServer(+[](ServerOptions* options) {
    options->executors = 1;
    options->admission.queue_capacity = 4096;
  });
  ExpectConcurrentPipelinedClientsServed(server_->port(), *service_);
  ExpectAdmittedReconciles();
  EXPECT_EQ(Count("server/completed"), 1600u);
}

TEST_F(ServerTest, ConcurrentPipelinedClientsTwoExecutors) {
  StartServer(+[](ServerOptions* options) {
    options->executors = 2;
    options->admission.queue_capacity = 4096;
  });
  ExpectConcurrentPipelinedClientsServed(server_->port(), *service_);
  ExpectAdmittedReconciles();
  EXPECT_EQ(Count("server/completed"), 1600u);
}

TEST_F(ServerTest, ClientThatStopsReadingIsDisconnectedWithoutStallingOthers) {
  StartServer();
  const auto ods = SampleOds(1);
  // Client A pipelines repeated queries in large writes and never reads,
  // until its responses fill both socket buffers and the server's writes to
  // it block.
  Client stalled;
  ASSERT_TRUE(stalled.Connect("127.0.0.1", server_->port()));
  timeval tick{};
  tick.tv_usec = 100 * 1000;  // so the writer can notice the test's end
  ASSERT_EQ(::setsockopt(stalled.fd(), SOL_SOCKET, SO_SNDTIMEO, &tick,
                         sizeof(tick)),
            0);
  std::vector<uint8_t> chunk;
  for (uint64_t i = 0; i < 1024; ++i) {
    RequestFrame request;
    request.request_id = i + 1;
    request.od = ods[0];
    const std::vector<uint8_t> frame = EncodeRequestFrame(request);
    chunk.insert(chunk.end(), frame.begin(), frame.end());
  }
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  std::atomic<bool> blocked{false};
  auto writer = std::async(std::launch::async, [&] {
    size_t offset = 0;  // whole frames per chunk, so wrapping stays aligned
    while (std::chrono::steady_clock::now() < give_up) {
      const ssize_t sent = ::send(stalled.fd(), chunk.data() + offset,
                                  chunk.size() - offset, MSG_NOSIGNAL);
      if (sent > 0) {
        offset = (offset + static_cast<size_t>(sent)) % chunk.size();
      } else if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        blocked.store(true);  // the server has stopped reading A
      } else if (!(sent < 0 && errno == EINTR)) {
        return true;  // reset by the server
      }
    }
    return false;
  });
  // Stalled: A's writes block, or the server already cut A off (which it
  // only does after a write to A timed out).
  const auto stalled_or_cut = [&] {
    return blocked.load() ||
           writer.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready;
  };
  while (!stalled_or_cut() && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(stalled_or_cut());
  // Client B asks while A is stalled: shed at first maybe, but answered by
  // the model once the server gives up on A.
  ResponseFrame answer;
  uint64_t id = 1u << 20;
  while (std::chrono::steady_clock::now() < give_up) {
    RequestFrame request;
    request.request_id = ++id;
    request.od = ods[0];
    ASSERT_TRUE(client_.Send(request));
    ASSERT_TRUE(client_.ReadResponse(&answer));
    ASSERT_EQ(answer.request_id, id);
    if (answer.status == Status::kOk) break;
    EXPECT_TRUE(IsShed(answer.status)) << StatusName(answer.status);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(answer.status, Status::kOk);
  EXPECT_EQ(answer.estimator, Estimator::kModel);
  EXPECT_EQ(answer.eta_seconds, service_->Estimate(ods[0]));
  EXPECT_TRUE(writer.get()) << "the stalled client was never disconnected";
  ExpectAdmittedReconciles();
  EXPECT_GT(Count("server/dropped_responses"), 0u);
}

TEST_F(ServerTest, ConnectionFloodPastTheCapIsRejectedWhileOthersServe) {
  StartServer([](ServerOptions* o) { o->max_connections = 3; });
  // Fill the cap: client_ plus two more, each served once so the server
  // has certainly accepted it before the flood arrives.
  Client second, third;
  ASSERT_TRUE(second.Connect("127.0.0.1", server_->port()));
  ASSERT_TRUE(third.Connect("127.0.0.1", server_->port()));
  const auto ods = SampleOds(1);
  const double want = service_->Estimate(ods[0]);
  uint64_t next_id = 1;
  const auto expect_served = [&](Client& client) {
    RequestFrame request;
    request.request_id = next_id++;
    request.od = ods[0];
    ASSERT_TRUE(client.Send(request));
    ResponseFrame response;
    ASSERT_TRUE(client.ReadResponse(&response));
    EXPECT_EQ(response.request_id, request.request_id);
    EXPECT_EQ(response.status, Status::kOk);
    EXPECT_EQ(response.eta_seconds, want);
  };
  expect_served(client_);
  expect_served(second);
  expect_served(third);

  // The flood: the kernel completes each handshake, the server closes
  // every connection past the cap at accept and counts it.
  constexpr size_t kExcess = 5;
  std::vector<std::unique_ptr<Client>> flood;
  for (size_t i = 0; i < kExcess; ++i) {
    flood.push_back(std::make_unique<Client>());
    ASSERT_TRUE(flood.back()->Connect("127.0.0.1", server_->port()));
  }
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (Count("server/rejected_connections") < kExcess &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(Count("server/rejected_connections"), kExcess);
  EXPECT_EQ(Count("server/accepted_connections"), 3u);
  for (auto& rejected : flood) {
    ResponseFrame response;
    EXPECT_FALSE(rejected->ReadResponse(&response));  // closed, never served
  }

  // The connected clients never noticed.
  expect_served(client_);
  expect_served(second);
  expect_served(third);
  ExpectAdmittedReconciles();
  EXPECT_EQ(Count("server/completed"), 6u);
}

}  // namespace
}  // namespace deepod
