/**
 * @file
 * In-process serial oracle for served responses: one single-threaded
 * `engineConfig(key, 1)` engine per EngineKey, each unique request run
 * once and memoized (the ta_loadgen Verifier rule). Verification is
 * spread over worker threads by request signature, so repeated
 * requests still hit one memo.
 */

#ifndef PERFBENCH_ORACLE_H
#define PERFBENCH_ORACLE_H

#include <cstdint>
#include <string>
#include <vector>

#include "service/protocol.h"

namespace perfbench {

/** One served request and the line the server answered with. */
struct Served
{
    ta::ServiceRequest request;
    std::string response; ///< "" when no answer arrived
};

/**
 * Byte-compare every answered `ok` response with the oracle's line.
 * Returns the number of mismatches; `first` gets a description of the
 * first one.
 */
uint64_t verifyResponses(const std::vector<Served> &served, int threads,
                         std::string *first);

} // namespace perfbench

#endif // PERFBENCH_ORACLE_H
