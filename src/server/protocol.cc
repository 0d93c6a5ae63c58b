#include "server/protocol.h"

#include <errno.h>
#include <string.h>
#include <unistd.h>

#include <sys/socket.h>

namespace skyline {
namespace {

/// recv() the full `count`, looping over short reads and EINTR. Returns
/// the bytes read — short only at end-of-stream.
Result<size_t> ReadFull(int fd, char* buffer, size_t count) {
  size_t done = 0;
  while (done < count) {
    const ssize_t n = ::recv(fd, buffer + done, count - done, 0);
    if (n == 0) break;  // peer closed
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("recv: ") + ::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  return done;
}

Status WriteFull(int fd, const char* buffer, size_t count) {
  size_t done = 0;
  while (done < count) {
    // MSG_NOSIGNAL: a peer that vanished mid-response must surface as
    // EPIPE, not kill the server process with SIGPIPE.
    const ssize_t n = ::send(fd, buffer + done, count - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("send: ") + ::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Status ReadFrame(int fd, std::string* payload, uint32_t max_bytes) {
  unsigned char prefix[4];
  SKYLINE_ASSIGN_OR_RETURN(
      size_t got, ReadFull(fd, reinterpret_cast<char*>(prefix), sizeof(prefix)));
  if (got == 0) return Status::NotFound("peer closed the connection");
  if (got < sizeof(prefix)) {
    return Status::IoError("connection closed mid-frame (length prefix)");
  }
  const uint32_t length = (static_cast<uint32_t>(prefix[0]) << 24) |
                          (static_cast<uint32_t>(prefix[1]) << 16) |
                          (static_cast<uint32_t>(prefix[2]) << 8) |
                          static_cast<uint32_t>(prefix[3]);
  if (length > max_bytes) {
    return Status::IoError("frame of " + std::to_string(length) +
                           " bytes exceeds the " + std::to_string(max_bytes) +
                           "-byte limit");
  }
  payload->resize(length);
  if (length > 0) {
    SKYLINE_ASSIGN_OR_RETURN(got, ReadFull(fd, payload->data(), length));
    if (got < length) {
      return Status::IoError("connection closed mid-frame (payload)");
    }
  }
  return Status::OK();
}

Status WriteFrame(int fd, const std::string& payload, uint32_t max_bytes) {
  if (payload.size() > max_bytes) {
    return Status::IoError("response of " + std::to_string(payload.size()) +
                           " bytes exceeds the " + std::to_string(max_bytes) +
                           "-byte limit");
  }
  // Prefix and payload leave in one send: a prefix sent alone would hold
  // the payload behind the peer's delayed ACK (Nagle), ~40 ms a frame.
  const uint32_t length = static_cast<uint32_t>(payload.size());
  std::string frame;
  frame.reserve(4 + payload.size());
  frame.push_back(static_cast<char>(length >> 24));
  frame.push_back(static_cast<char>(length >> 16));
  frame.push_back(static_cast<char>(length >> 8));
  frame.push_back(static_cast<char>(length));
  frame += payload;
  return WriteFull(fd, frame.data(), frame.size());
}

}  // namespace skyline
