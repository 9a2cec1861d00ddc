// A session-oriented VOD server for one video.
//
// VodServer is the deployment-shaped wrapper around DhbScheduler: it
// advances the slot clock, assigns each transmitted segment instance to a
// concrete channel, and manages client sessions with the VCR operations
// the protocol supports —
//
//   start()   admit a client (watches S_1..S_n, one segment per slot);
//   pause()   freeze playback; the client stops consuming (transmissions
//             already scheduled are never cancelled — other clients may
//             share them);
//   resume()  re-admit the client from its next unwatched segment via the
//             scheduler's suffix admission (on_resume);
//   stop()    abandon the session.
//
// Every (re-)admission is verified against the playout contract at the
// moment it happens; `SessionInfo::playout_ok` accumulates the result.
//
// Playback progress is derived from the slot clock, never stored per tick:
// DHB never cancels a transmission, so a watching client consumes exactly
// one segment per slot from the slot after its (re-)admission, and its
// position at slot `now` is next_segment + (now - admitted_slot), finished
// once that passes n. A stored watching record keeps the position of its
// admission; paused and stopped records keep the position they froze at.
// advance_slot() therefore touches no session, and a tick costs the same
// however many sessions the server has ever served.
//
// Determinism note: sessions live in a vector indexed by id - 1 (ids are
// dense and sequential, never reused), so every walk is id-ordered by
// construction.
#pragma once

#include <cstdint>
#include <vector>

#include "core/dhb.h"
#include "schedule/types.h"
#include "util/thread_checker.h"

namespace vod {

struct ServerTransmission {
  int channel = 0;     // 0-based channel carrying this instance
  Segment segment = 0;
};

class VodServer {
 public:
  using ClientId = uint64_t;

  enum class SessionState { kWatching, kPaused, kFinished, kStopped };

  struct SessionInfo {
    SessionState state = SessionState::kWatching;
    Segment next_segment = 1;   // first segment not yet watched
    Slot admitted_slot = 0;     // slot of the latest (re-)admission
    bool playout_ok = true;     // every (re-)admission met its deadlines
    int resumes = 0;
  };

  explicit VodServer(const DhbConfig& config);

  // Advances one slot: returns the channel/segment pairs transmitted
  // during the new current slot. Watching sessions move forward by one
  // segment implicitly (see the header comment).
  std::vector<ServerTransmission> advance_slot();

  // Admits a new client during the current slot.
  ClientId start();

  // VCR operations; ids must name sessions this server started.
  void pause(ClientId id);
  void resume(ClientId id);
  void stop(ClientId id);

  // The session as of current_slot(); finished and stopped sessions stay
  // readable.
  SessionInfo session(ClientId id) const;
  Slot current_slot() const { return scheduler_.current_slot(); }
  int num_segments() const { return scheduler_.num_segments(); }

  // Sessions currently watching or paused.
  int active_sessions() const;
  // Every session id (any state) in walk order: ascending, 1..N.
  std::vector<ClientId> session_ids() const;
  // Channels busy during the current slot / the most ever needed at once.
  int channels_in_use() const { return channels_in_use_; }
  int peak_channels() const { return peak_channels_; }
  uint64_t total_transmissions() const { return total_transmissions_; }

  const DhbScheduler& scheduler() const { return scheduler_; }

 private:
  // One thread owns a server (sessions + the underlying scheduler); the
  // VCR entry points assert it in Debug builds (DESIGN.md §11).
  ThreadChecker serial_;

  DhbScheduler scheduler_;
  std::vector<SessionInfo> sessions_;  // session id - 1
  int channels_in_use_ = 0;
  int peak_channels_ = 0;
  uint64_t total_transmissions_ = 0;
};

}  // namespace vod
