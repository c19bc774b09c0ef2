/**
 * @file
 * Minimal blocking client for the serve protocol: `mlpsim query`,
 * the smoke tests and the latency bench all speak through this.
 */

#ifndef MLPSIM_SERVE_CLIENT_H
#define MLPSIM_SERVE_CLIENT_H

#include <string>

#include "serve/protocol.h"

namespace mlps::serve {

/**
 * Split "host:port" (or bare ":port" / "port") into parts.
 * @return false + error on an unparsable port.
 */
bool parseEndpoint(const std::string &spec, std::string *host,
                   int *port, std::string *error);

/** One blocking TCP connection to a serve endpoint. */
class Connection
{
  public:
    Connection() = default;
    ~Connection();

    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    /**
     * Connect and consume the server's hello line.
     * @return false + error when the dial or greeting fails.
     */
    bool dial(const std::string &host, int port, std::string *error);

    /** Send one request line (the newline is appended here). */
    bool sendLine(const std::string &line, std::string *error);

    /** Block for the next response line (without its newline). */
    bool recvLine(std::string *line, std::string *error);

    /** sendLine + recvLine + decodeResponse, for simple callers. */
    bool roundTrip(const std::string &request, Response *response,
                   std::string *error);

    /** Protocol version from the hello; 0 before dial(). */
    int serverProto() const { return proto_; }

    void close();

  private:
    int fd_ = -1;
    int proto_ = 0;
    std::string inbox_; ///< bytes read past the last returned line
};

} // namespace mlps::serve

#endif // MLPSIM_SERVE_CLIENT_H
