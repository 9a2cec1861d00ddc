#include "server/vod_server.h"

#include <algorithm>
#include <numeric>
#include <span>

#include "schedule/client_plan.h"
#include "util/check.h"

namespace vod {

VodServer::VodServer(const DhbConfig& config) : scheduler_(config) {}

std::vector<ServerTransmission> VodServer::advance_slot() {
  VOD_DCHECK_SERIAL(serial_);
  const std::span<const Segment> segments = scheduler_.advance_slot_view();

  // Channel assignment is per slot: instances occupy a channel for exactly
  // one slot, so the lowest channels are handed out in scheduling order.
  std::vector<ServerTransmission> out;
  out.reserve(segments.size());
  for (size_t k = 0; k < segments.size(); ++k) {
    out.push_back(ServerTransmission{static_cast<int>(k), segments[k]});
  }
  channels_in_use_ = static_cast<int>(segments.size());
  peak_channels_ = std::max(peak_channels_, channels_in_use_);
  total_transmissions_ += segments.size();
  return out;
}

VodServer::ClientId VodServer::start() {
  VOD_DCHECK_SERIAL(serial_);
  SessionInfo info;
  info.admitted_slot = scheduler_.current_slot();
  const DhbRequestResult& r = scheduler_.on_request_batch(1);
  info.playout_ok = verify_plan(r.plan, scheduler_.periods()).deadlines_met;
  sessions_.push_back(info);
  return sessions_.size();
}

VodServer::SessionInfo VodServer::session(ClientId id) const {
  VOD_CHECK_MSG(id >= 1 && id <= sessions_.size(), "unknown session id");
  SessionInfo info = sessions_[id - 1];
  if (info.state != SessionState::kWatching) return info;
  // One segment per slot, starting the slot after the (re-)admission.
  const Slot watched = current_slot() - info.admitted_slot;
  if (watched > num_segments() - info.next_segment) {
    info.next_segment = num_segments() + 1;
    info.state = SessionState::kFinished;
  } else {
    info.next_segment += static_cast<Segment>(watched);
  }
  return info;
}

void VodServer::pause(ClientId id) {
  VOD_DCHECK_SERIAL(serial_);
  SessionInfo info = session(id);
  VOD_CHECK_MSG(info.state == SessionState::kWatching,
                "only a watching session can pause");
  info.state = SessionState::kPaused;
  sessions_[id - 1] = info;
}

void VodServer::resume(ClientId id) {
  VOD_DCHECK_SERIAL(serial_);
  SessionInfo info = session(id);
  VOD_CHECK_MSG(info.state == SessionState::kPaused,
                "only a paused session can resume");
  // A paused session always has a segment left: a watching one turns
  // kFinished the slot its position passes n, and then cannot pause.
  const DhbRequestResult r = scheduler_.on_resume(info.next_segment);
  info.playout_ok =
      info.playout_ok &&
      verify_plan(r.plan, scheduler_.resume_periods(info.next_segment))
          .deadlines_met;
  info.admitted_slot = scheduler_.current_slot();
  info.state = SessionState::kWatching;
  ++info.resumes;
  sessions_[id - 1] = info;
}

void VodServer::stop(ClientId id) {
  VOD_DCHECK_SERIAL(serial_);
  SessionInfo info = session(id);
  info.state = SessionState::kStopped;
  sessions_[id - 1] = info;
}

int VodServer::active_sessions() const {
  int n = 0;
  for (ClientId id = 1; id <= sessions_.size(); ++id) {
    const SessionState state = session(id).state;
    n += state == SessionState::kWatching || state == SessionState::kPaused;
  }
  return n;
}

std::vector<VodServer::ClientId> VodServer::session_ids() const {
  std::vector<ClientId> ids(sessions_.size());
  std::iota(ids.begin(), ids.end(), ClientId{1});
  return ids;
}

}  // namespace vod
