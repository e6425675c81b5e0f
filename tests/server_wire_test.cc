// hc2ld wire-protocol and TCP-server tests. The protocol core
// (src/server/wire.h) is exercised socket-free: parsing into reusable
// buffers, execution, response formatting, and — most importantly — the
// guarantee that a malformed request line of any shape becomes an
// {"ok":false,...} response line, never an abort. A second group runs a
// real QueryServer on an ephemeral port and round-trips pipelined and
// split-across-writes requests through a raw client socket.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "hc2l/hc2l.h"
#include "hc2l/server.h"
#include "server/wire.h"
#include "server_test_util.h"
#include "test_util.h"

namespace hc2l {
namespace {

using ::hc2l::testing::KNearest;

Graph WireTestGraph() {
  RoadNetworkOptions opt;
  opt.rows = 10;
  opt.cols = 10;
  opt.seed = 99;
  return GenerateRoadNetwork(opt);
}

class WireTest : public ::testing::Test {
 protected:
  WireTest() {
    Result<Router> built = Router::Build(WireTestGraph());
    EXPECT_TRUE(built.ok());
    router_ = std::make_unique<Router>(std::move(built).value());
    Result<ThreadedRouter> threaded = router_->WithThreads(2);
    EXPECT_TRUE(threaded.ok());
    threaded_ =
        std::make_unique<ThreadedRouter>(std::move(threaded).value());
    handler_ = std::make_unique<RequestHandler>();  // hook-less
  }

  /// Handles one line, expects exactly one response line, returns it
  /// without the trailing newline.
  std::string Handle(std::string_view line) {
    std::string out;
    handler_->HandleLine(line, *router_, *threaded_, &out);
    EXPECT_FALSE(out.empty()) << "no response to: " << line;
    EXPECT_EQ(out.back(), '\n');
    out.pop_back();
    EXPECT_EQ(out.find('\n'), std::string::npos)
        << "more than one response line to: " << line;
    return out;
  }

  std::unique_ptr<Router> router_;
  std::unique_ptr<ThreadedRouter> threaded_;
  std::unique_ptr<RequestHandler> handler_;
};

TEST_F(WireTest, ParseRequestLineRoundTrip) {
  WireRequest req;
  const Status st = ParseRequestLine(
      R"({"op":"matrix","sources":[1, 2,3],"targets":[4],"k":9,)"
      R"("deadline_ms":250,"threads":2,"missing":"unreachable",)"
      R"("future_key":{"nested":[1,{"x":"y"}],"f":1.5e9}})",
      &req);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(req.op, WireOp::kMatrix);
  EXPECT_EQ(req.sources, (std::vector<Vertex>{1, 2, 3}));
  EXPECT_EQ(req.targets, (std::vector<Vertex>{4}));
  EXPECT_EQ(req.k, 9u);
  EXPECT_EQ(req.options.deadline, std::chrono::milliseconds(250));
  EXPECT_EQ(req.options.num_threads, 2u);
  EXPECT_EQ(req.options.missing_vertices, MissingVertexPolicy::kUnreachable);

  // "source" scalar and "candidates" alias.
  ASSERT_TRUE(
      ParseRequestLine(R"({"op":"knearest","source":7,"candidates":[8,9]})",
                       &req)
          .ok());
  EXPECT_EQ(req.sources, (std::vector<Vertex>{7}));
  EXPECT_EQ(req.targets, (std::vector<Vertex>{8, 9}));

  // Ids beyond the 32-bit vertex space degrade to kInvalidVertex (policy
  // decides downstream), they do not wrap around to a valid id.
  ASSERT_TRUE(ParseRequestLine(
                  R"({"op":"batch","source":18446744073709551615,)"
                  R"("targets":[4294967296]})",
                  &req)
                  .ok());
  EXPECT_EQ(req.sources[0], kInvalidVertex);
  EXPECT_EQ(req.targets[0], kInvalidVertex);

  // Keys are matched as views into the line; a key holding an escape is
  // decoded first, so "o\u0070" is the "op" key. Op names decode the same.
  ASSERT_TRUE(ParseRequestLine(
                  R"({"o\u0070":"point","sources":[1],"targets":[2]})", &req)
                  .ok());
  EXPECT_EQ(req.op, WireOp::kPoint);
  EXPECT_EQ(req.sources, (std::vector<Vertex>{1}));
  ASSERT_TRUE(
      ParseRequestLine(R"({"op":"b\u0061tch","source":1,"targets":[2]})", &req)
          .ok());
  EXPECT_EQ(req.op, WireOp::kBatch);
  ASSERT_TRUE(ParseRequestLine(R"({"op":"fl\u0079"})", &req).ok());
  EXPECT_EQ(req.op, WireOp::kUnknown);
  EXPECT_EQ(req.unknown_op, "fly");

  // A repeated "op" key: the last one wins, whatever came before.
  ASSERT_TRUE(ParseRequestLine(
                  R"({"op":"matrix","sources":[1],"op":"point","targets":[2]})",
                  &req)
                  .ok());
  EXPECT_EQ(req.op, WireOp::kPoint);
  ASSERT_TRUE(ParseRequestLine(R"({"op":"fly","op":"route"})", &req).ok());
  EXPECT_EQ(req.op, WireOp::kRoute);
  ASSERT_TRUE(ParseRequestLine(R"({"op":"ping","op":""})", &req).ok());
  EXPECT_EQ(req.op, WireOp::kNone);
}

TEST_F(WireTest, MalformedLinesAreErrorsNotAborts) {
  const char* kBad[] = {
      "not json at all",
      "{",
      "{}garbage",
      R"({"op")",
      R"({"op":})",
      R"({"op":"batch",})",
      R"({"op":"batch" "source":1})",
      R"({"op":"batch","source":-1,"targets":[1]})",
      R"({"op":"batch","source":1.5,"targets":[1]})",
      R"({"op":"batch","source":1,"targets":[1,]})",
      R"({"op":"batch","source":1,"targets":1})",
      R"({"op":"batch","source":"one","targets":[1]})",
      R"({"op":"batch","source":1,"targets":[1],"missing":"maybe"})",
      R"({"op":"\uD800","source":1})",
      R"({"op":"unterminated)",
      R"({"op":"batch","junk":[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[1]})",
      "\x01\x02\x03",
      R"([1,2,3])",
      R"("just a string")",
      // Hostile update_weights payloads: every malformed shape is a parse
      // error, never an abort.
      R"({"op":"update_weights","edges":[[0,1,-5]]})",      // negative weight
      R"({"op":"update_weights","edges":[[0,1,4294967296]]})",  // > 32 bits
      R"({"op":"update_weights","edges":[[0,1]]})",         // truncated triple
      R"({"op":"update_weights","edges":[[0,1,2,3]]})",     // overlong triple
      R"({"op":"update_weights","edges":[[0,1,2],[3]]})",   // ragged batch
      R"({"op":"update_weights","edges":5})",               // not an array
      R"({"op":"update_weights","edges":[0,1,2]})",         // flat, not nested
      R"({"op":"update_weights","edges":[[0,1,2})",         // unterminated
  };
  for (const char* line : kBad) {
    const std::string response = Handle(line);
    EXPECT_EQ(response.find("{\"ok\":false"), 0u) << line << " -> "
                                                  << response;
  }
  // Structurally valid JSON with a bad/missing op is also a clean error.
  EXPECT_EQ(Handle(R"({"op":"fly","source":1})").find("{\"ok\":false"), 0u);
  EXPECT_EQ(Handle(R"({"source":1})").find("{\"ok\":false"), 0u);
  EXPECT_EQ(Handle(R"({"op":"batch","sources":[1,2],"targets":[3]})")
                .find("{\"ok\":false"),
            0u);
  // "point" is strictly pairwise on the wire: one source with two targets
  // must NOT silently degrade to a broadcast batch.
  EXPECT_EQ(Handle(R"({"op":"point","sources":[3],"targets":[7,8]})")
                .find("{\"ok\":false,\"code\":\"InvalidArgument\""),
            0u);

  // The copy-free key path falls back to the decoding parser on anything
  // but a plain string, so its errors are the decoding parser's, byte for
  // byte: a raw control byte inside a key, an op value or a skipped value.
  const std::string control_error =
      "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":"
      "\"bad request JSON at byte 4: unescaped control character in "
      "string\"}";
  EXPECT_EQ(Handle("{\"o\x01p\":\"point\"}"), control_error);
  EXPECT_EQ(Handle("{\"op\":\"po\x02int\"}"),
            "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":"
            "\"bad request JSON at byte 10: unescaped control character in "
            "string\"}");
  EXPECT_EQ(Handle("{\"x\":\"\x03\"}"),
            "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":"
            "\"bad request JSON at byte 7: unescaped control character in "
            "string\"}");
  // An unknown op is named as sent (decoded); an empty last "op" is no op.
  EXPECT_EQ(Handle(R"({"op":"fl\u0079","source":1})"),
            "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":"
            "\"unknown op \\\"fly\\\" (expected batch, point, matrix, "
            "knearest, route, info, ping, reload or update_weights)\"}");
  EXPECT_EQ(Handle(R"({"op":"point","op":""})"),
            "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":"
            "\"request has no \\\"op\\\"\"}");
}

/// Request lines and their exact response bytes, recorded from the parser
/// this table was written against: every error path of the cursor (each
/// "expected ...", bad literals, unterminated strings, control bytes, \\u
/// and surrogate escapes, fractional numbers, nesting depth, trailing
/// bytes), UINT64 saturation, ids >= 2^32, and the shape errors that follow
/// a clean parse. Answers come from the fixture's 130-vertex graph.
struct GoldenLine {
  std::string_view line;
  std::string_view response;
};
constexpr GoldenLine kGoldenLines[] = {
      {"not json at all",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 0: expected '{'\"}\n"},
      {"[1,2,3]",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 0: expected '{'\"}\n"},
      {"\"just a string\"",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 0: expected '{'\"}\n"},
      {"\x01" "\x02" "\x03" "",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 0: expected '{'\"}\n"},
      {"{",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 1: expected '\\\"'\"}\n"},
      {"   {",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 4: expected '\\\"'\"}\n"},
      {"{\"op\"",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 5: expected ':'\"}\n"},
      {"{\"op\" \"point\"}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 6: expected ':'\"}\n"},
      {"{\"op\":}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 6: expected '\\\"'\"}\n"},
      {"{\"op\":",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 6: expected '\\\"'\"}\n"},
      {"{op:\"point\"}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 1: expected '\\\"'\"}\n"},
      {"{\"op\":\"batch\",}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 14: expected '\\\"'\"}\n"},
      {"{\"op\":\"batch\" \"source\":1}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 14: expected ','\"}\n"},
      {"{\"op\":\"batch\",\"source\":1,\"targets\":[1 2]}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 38: expected ','\"}\n"},
      {"{\"op\":\"batch\",\"source\":1,\"targets\":1}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 35: expected '['\"}\n"},
      {"{\"op\":\"batch\",\"source\":1,\"targets\":[1,]}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 38: expected a non-negative integer\"}\n"},
      {"{\"op\":\"batch\",\"source\":1,\"targets\":[",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 36: expected a non-negative integer\"}\n"},
      {"{\"op\":\"batch\",\"source\":-1,\"targets\":[1]}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 23: expected a non-negative integer\"}\n"},
      {"{\"op\":\"batch\",\"source\":\"one\",\"targets\":[1]}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 23: expected a non-negative integer\"}\n"},
      {"{\"op\":\"batch\",\"source\":1.5,\"targets\":[1]}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 24: expected an integer, got a fractional number\"}\n"},
      {"{\"op\":\"batch\",\"source\":1,\"targets\":[2e3]}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 37: expected an integer, got a fractional number\"}\n"},
      {"{\"op\":\"point\",\"sources\":[1],\"targets\":[7E1]}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 40: expected an integer, got a fractional number\"}\n"},
      {"{\"op\":\"point\",\"sources\":[1],\"targets\":[7],\"k\":}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 46: expected a non-negative integer\"}\n"},
      {"{\"op\":\"matrix\",\"sources\":[1],\"targets\":[2],\"stream\":1}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 52: expected true or false\"}\n"},
      {"{\"op\":\"matrix\",\"sources\":[1],\"targets\":[2],\"stream\":tru}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 52: expected true or false\"}\n"},
      {"{\"op\":\"ping\",\"junk\":nul}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 20: bad literal\"}\n"},
      {"{\"op\":\"ping\",\"junk\":fals}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 20: bad literal\"}\n"},
      {"{\"op\":\"ping\",\"junk\":tx}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 20: bad literal\"}\n"},
      {"{\"op\":\"ping\",\"junk\":}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 20: expected a value\"}\n"},
      {"{\"op\":\"ping\",\"junk\":-}",
       "{\"ok\":true,\"op\":\"ping\"}\n"},
      {"{\"op\":\"ping\",\"junk\":[1,{\"a\":[null,true,false,-1.5e+3,\"s\"]}]}",
       "{\"ok\":true,\"op\":\"ping\"}\n"},
      {"{\"op\":\"ping\",\"junk\":{\"a\" 1}}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 25: expected ':'\"}\n"},
      {"{\"op\":\"ping\",\"junk\":{1:2}}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 21: expected '\\\"'\"}\n"},
      {"{\"op\":\"ping\",\"junk\":[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 53: value nested too deeply\"}\n"},
      {"{\"op\":\"ping\",\"junk\":[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]}",
       "{\"ok\":true,\"op\":\"ping\"}\n"},
      {"{\"op\":\"ping\",\"junk\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":1}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 185: value nested too deeply\"}\n"},
      {"{\"op\":\"unterminated",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 19: unterminated string\"}\n"},
      {"{\"op\":\"ab\\",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 10: unterminated string\"}\n"},
      {"{\"op\":\"ab\\\"",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 11: unterminated string\"}\n"},
      {"{\"o\x01" "p\":\"point\"}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 4: unescaped control character in string\"}\n"},
      {"{\"op\":\"po\x02" "int\"}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 10: unescaped control character in string\"}\n"},
      {"{\"x\":\"\x03" "\"}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 7: unescaped control character in string\"}\n"},
      {"{\"op\":\"\\u12\"}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 12: bad hex digit in \\\\u escape\"}\n"},
      {"{\"op\":\"\\u1",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 9: truncated \\\\u escape\"}\n"},
      {"{\"op\":\"\\u12G4\"}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 12: bad hex digit in \\\\u escape\"}\n"},
      {"{\"op\":\"\\uD800\",\"source\":1}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 13: surrogate \\\\u escapes are not supported\"}\n"},
      {"{\"op\":\"\\udfff\"}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 13: surrogate \\\\u escapes are not supported\"}\n"},
      {"{\"op\":\"\xc3" "\xa9" "\xe2" "\x82" "\xac" "A\\u0000\"}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"unknown op \\\"\xc3" "\xa9" "\xe2" "\x82" "\xac" "A\\u0000\\\" (expected batch, point, matrix, knearest, route, info, ping, reload or update_weights)\"}\n"},
      {"{\"op\":\"\\x\"}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 9: unsupported string escape\"}\n"},
      {"{\"op\":\"a\\\"b\\\\c\\/d\\b\\f\\n\\r\\t\"}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"unknown op \\\"a\\\"b\\\\c/d\\u0008\\u000c\\n\\r\\t\\\" (expected batch, point, matrix, knearest, route, info, ping, reload or update_weights)\"}\n"},
      {"{\"op\":\"point\",\"sources\":[1],\"targets\":[2]}",
       "{\"ok\":true,\"op\":\"point\",\"distances\":[103]}\n"},
      {"{\"op\":\"batch\",\"source\":1,\"targets\":[2,3]}",
       "{\"ok\":true,\"op\":\"batch\",\"distances\":[103,198]}\n"},
      {"{\"path\":\"\\q\",\"op\":\"reload\"}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 11: unsupported string escape\"}\n"},
      {"{}garbage",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 2: trailing bytes after the request object\"}\n"},
      {"{\"op\":\"ping\"} x",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 14: trailing bytes after the request object\"}\n"},
      {"{\"op\":\"ping\"}   ",
       "{\"ok\":true,\"op\":\"ping\"}\n"},
      {" { \"op\" : \"ping\" } ",
       "{\"ok\":true,\"op\":\"ping\"}\n"},
      {"\t{\"op\":\"ping\"}\r",
       "{\"ok\":true,\"op\":\"ping\"}\n"},
      {"{}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"request has no \\\"op\\\"\"}\n"},
      {"{\"source\":1}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"request has no \\\"op\\\"\"}\n"},
      {"{\"op\":\"fly\",\"source\":1}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"unknown op \\\"fly\\\" (expected batch, point, matrix, knearest, route, info, ping, reload or update_weights)\"}\n"},
      {"{\"op\":\"point\",\"op\":\"\"}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"request has no \\\"op\\\"\"}\n"},
      {"{\"op\":\"batch\",\"source\":1,\"targets\":[1],\"missing\":\"maybe\"}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"\\\"missing\\\" must be \\\"error\\\" or \\\"unreachable\\\", got \\\"maybe\\\"\"}\n"},
      {"{\"op\":\"batch\",\"source\":1,\"targets\":[1],\"missing\":7}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 49: expected '\\\"'\"}\n"},
      {"{\"op\":\"batch\",\"source\":99999999999999999999999,\"targets\":[1]}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"source vertex id 4294967295 out of range [0, 130)\"}\n"},
      {"{\"op\":\"batch\",\"source\":1,\"targets\":[4294967295,4294967296,18446744073709551616]}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"targets[0] = 4294967295 out of range [0, 130)\"}\n"},
      {"{\"op\":\"batch\",\"source\":1,\"targets\":[4294967296,2],\"missing\":\"unreachable\"}",
       "{\"ok\":true,\"op\":\"batch\",\"distances\":[null,103]}\n"},
      {"{\"op\":\"point\",\"sources\":[4294967296],\"targets\":[3]}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"source vertex id 4294967295 out of range [0, 130)\"}\n"},
      {"{\"op\":\"route\",\"source\":0,\"target\":9,\"k\":18446744073709551616}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"\\\"k\\\" = 18446744073709551615 alternative routes exceeds this server's cap of 16\"}\n"},
      {"{\"op\":\"route\",\"source\":0,\"target\":9,\"k\":17}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"\\\"k\\\" = 17 alternative routes exceeds this server's cap of 16\"}\n"},
      {"{\"op\":\"batch\",\"source\":0,\"targets\":[1],\"deadline_ms\":99999999999999999999}",
       "{\"ok\":true,\"op\":\"batch\",\"distances\":[94]}\n"},
      {"{\"op\":\"batch\",\"source\":0,\"targets\":[1],\"threads\":99999999999999999999}",
       "{\"ok\":true,\"op\":\"batch\",\"distances\":[94]}\n"},
      {"{\"op\":\"point\",\"sources\":[3],\"targets\":[7,8]}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"\\\"point\\\" is pairwise: needs exactly as many sources as targets (got 1 and 2)\"}\n"},
      {"{\"op\":\"batch\",\"sources\":[1,2],\"targets\":[3]}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"\\\"batch\\\" needs a single \\\"source\\\" (use \\\"point\\\" for pairwise queries)\"}\n"},
      {"{\"op\":\"route\",\"source\":0}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"\\\"route\\\" needs a single \\\"source\\\" and a single \\\"target\\\"\"}\n"},
      {"{\"op\":\"knearest\",\"source\":0,\"candidates\":[5,9,99,1000],\"k\":2}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"candidates[3] = 1000 out of range [0, 130)\"}\n"},
      {"{\"op\":\"matrix\",\"sources\":[0,5,1000],\"targets\":[9,99],\"missing\":\"unreachable\"}",
       "{\"ok\":true,\"op\":\"matrix\",\"rows\":3,\"cols\":2,\"distances\":[892,1666,375,1179,null,null]}\n"},
      {"{\"op\":\"update_weights\",\"edges\":[[0,1,-5]]}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 37: expected a non-negative integer\"}\n"},
      {"{\"op\":\"update_weights\",\"edges\":[[0,1,4294967296]]}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 48: edge weight 4294967296 exceeds the 32-bit weight space\"}\n"},
      {"{\"op\":\"update_weights\",\"edges\":[[0,1]]}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 36: expected ','\"}\n"},
      {"{\"op\":\"update_weights\",\"edges\":[[0,1,2,3]]}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 38: expected ']'\"}\n"},
      {"{\"op\":\"update_weights\",\"edges\":[[0,1,2],[3]]}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 42: expected ','\"}\n"},
      {"{\"op\":\"update_weights\",\"edges\":5}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 31: expected '['\"}\n"},
      {"{\"op\":\"update_weights\",\"edges\":[0,1,2]}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 32: expected '['\"}\n"},
      {"{\"op\":\"update_weights\",\"edges\":[[0,1,2}",
       "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 38: expected ']'\"}\n"},
      {"{\"op\":\"update_weights\",\"edges\":[]}",
       "{\"ok\":false,\"code\":\"Unimplemented\",\"message\":\"this endpoint has no update_weights hook\"}\n"},
      {"{\"op\":\"update_weights\",\"edges\":[[0,1,7]]}",
       "{\"ok\":false,\"code\":\"Unimplemented\",\"message\":\"this endpoint has no update_weights hook\"}\n"},
      {"{\"op\":\"reload\",\"path\":\"x\"}",
       "{\"ok\":false,\"code\":\"Unimplemented\",\"message\":\"this endpoint has no reload hook\"}\n"},
};

TEST_F(WireTest, ParserGoldenResponsesAreByteIdentical) {
  for (const GoldenLine& golden : kGoldenLines) {
    std::string out;
    handler_->HandleLine(golden.line, *router_, *threaded_, &out);
    EXPECT_EQ(out, golden.response) << golden.line;
  }
  // One triple past the update batch cap.
  std::string cap = R"({"op":"update_weights","edges":[)";
  for (uint64_t i = 0; i <= kMaxUpdateEdges; ++i) {
    if (i != 0) cap += ",";
    cap += "[0,1,2]";
  }
  cap += "]}";
  std::string out;
  handler_->HandleLine(cap, *router_, *threaded_, &out);
  EXPECT_EQ(out,
            "{\"ok\":false,\"code\":\"InvalidArgument\",\"message\":\"bad request JSON at byte 524320: update batch exceeds the per-request cap of 65536 edges\"}\n");

  // The response-frame parser of the stream reassembler shares the cursor.
  constexpr GoldenLine kGoldenFrames[] = {
        {"{\"ok\":true,\"op\":\"matrix\",\"stream\":true,\"rows\":1,\"cols\":2} x",
         "InvalidArgument: bad request JSON at byte 58: trailing bytes after the response object"},
        {"{\"ok\":tru}",
         "InvalidArgument: bad request JSON at byte 6: expected true or false"},
        {"{\"ok\":true,\"distances\":[1,null,nul]}",
         "InvalidArgument: bad request JSON at byte 31: expected a non-negative integer"},
        {"{\"ok\":true,\"chunk\":1.5}",
         "InvalidArgument: bad request JSON at byte 20: expected an integer, got a fractional number"},
        {"{\"ok\":true,\"op\":\"m\\u00",
         "InvalidArgument: bad request JSON at byte 20: truncated \\u escape"},
        {"{\"ok\":true \"op\":\"matrix\"}",
         "InvalidArgument: bad request JSON at byte 11: expected ','"},
  };
  for (const GoldenLine& golden : kGoldenFrames) {
    StreamReassembler reassembler;
    EXPECT_EQ(reassembler.Feed(golden.line).ToString(), golden.response)
        << golden.line;
  }
}

TEST_F(WireTest, MutatedLinesGetExactlyOneResponseLine) {
  // Truncations and byte flips of valid point, batch and matrix lines: a
  // line holding anything but blanks gets exactly one response line (an
  // answer or an error), a blank line none.
  const std::string kValid[] = {
      R"({"op":"point","sources":[3,10],"targets":[77,91]})",
      R"({"op":"batch","source":5,"targets":[1,2,3,129]})",
      R"({"op":"matrix","sources":[0,7],"targets":[9,99,4],"stream":false})",
      R"({"op":"matrix","sources":[1,2],"targets":[3],"stream":true,)"
      R"("missing":"unreachable","deadline_ms":5000,"junk":[{"a":null}]})",
  };
  std::mt19937_64 rng(25);
  const auto expect_one = [&](const std::string& line) {
    std::string out;
    handler_->HandleLine(line, *router_, *threaded_, &out);
    std::string_view trimmed(line);
    while (!trimmed.empty() && trimmed.back() == '\r') trimmed.remove_suffix(1);
    const bool blank =
        trimmed.find_first_not_of(" \t") == std::string_view::npos;
    if (blank) {
      EXPECT_TRUE(out.empty()) << line;
      return;
    }
    // A streamed matrix answers header, chunks and trailer: count the
    // lines that are not chunk frames of a successful stream.
    size_t lines = 0;
    for (size_t at = 0; at < out.size();) {
      const size_t nl = out.find('\n', at);
      ASSERT_NE(nl, std::string::npos) << line;
      const std::string_view response(out.data() + at, nl - at);
      if (response.find("\"chunk\":") == std::string_view::npos &&
          response.find("\"done\":") == std::string_view::npos) {
        ++lines;
      }
      at = nl + 1;
    }
    EXPECT_EQ(lines, 1u) << line << " -> " << out;
  };
  for (const std::string& valid : kValid) {
    for (size_t len = 0; len <= valid.size(); ++len) {
      expect_one(valid.substr(0, len));
    }
    for (int round = 0; round < 400; ++round) {
      std::string line = valid;
      const int flips = 1 + static_cast<int>(rng() % 3);
      for (int f = 0; f < flips; ++f) {
        char& c = line[rng() % line.size()];
        // Any byte but a newline: the line splitter consumed those.
        do {
          c = static_cast<char>(rng() % 256);
        } while (c == '\n');
      }
      expect_one(line);
    }
  }
}

TEST_F(WireTest, EmptyLinesProduceNoResponse) {
  std::string out;
  handler_->HandleLine("", *router_, *threaded_, &out);
  handler_->HandleLine("   ", *router_, *threaded_, &out);
  handler_->HandleLine("\r", *router_, *threaded_, &out);
  EXPECT_TRUE(out.empty());
}

TEST_F(WireTest, AdmissionHookShedsWithOverloadedResponse) {
  // A handler whose admit hook says no answers Overloaded and never
  // executes; admitted requests pair with exactly one release.
  int admitted = 0;
  int released = 0;
  bool allow = false;
  ServerHooks hooks;
  hooks.admit = [&](uint64_t* retry_after_ms) {
    if (!allow) {
      *retry_after_ms = 250;
      return false;
    }
    ++admitted;
    return true;
  };
  hooks.release = [&](uint64_t count) {
    released += static_cast<int>(count);
  };
  RequestHandler handler(std::move(hooks));

  std::string out;
  handler.HandleLine(R"({"op":"batch","source":0,"targets":[1]})", *router_,
                     *threaded_, &out);
  EXPECT_EQ(out.find("{\"ok\":false,\"code\":\"Overloaded\","
                     "\"retry_after_ms\":250"),
            0u)
      << out;
  EXPECT_EQ(admitted, 0);
  EXPECT_EQ(released, 0) << "nothing admitted, nothing released";

  // ping and info bypass admission: they must work on an overloaded server.
  out.clear();
  handler.HandleLine(R"({"op":"ping"})", *router_, *threaded_, &out);
  EXPECT_EQ(out, "{\"ok\":true,\"op\":\"ping\"}\n");
  out.clear();
  handler.HandleLine(R"({"op":"info"})", *router_, *threaded_, &out);
  EXPECT_EQ(out.find("{\"ok\":true,\"op\":\"info\""), 0u);

  allow = true;
  out.clear();
  handler.HandleLine(R"({"op":"batch","source":0,"targets":[1]})", *router_,
                     *threaded_, &out);
  EXPECT_EQ(out.find("{\"ok\":true"), 0u);
  EXPECT_EQ(admitted, 1);
  EXPECT_EQ(released, 1);
}

TEST_F(WireTest, ReloadOpRoutesThroughHook) {
  // Hook-less handlers (this fixture's) answer reload with Unimplemented.
  const std::string bare = Handle(R"({"op":"reload"})");
  EXPECT_EQ(bare.find("{\"ok\":false,\"code\":\"Unimplemented\""), 0u);

  std::string seen_path = "<unset>";
  ServerHooks hooks;
  hooks.reload = [&](std::string_view path, uint64_t* epoch) {
    seen_path = std::string(path);
    *epoch = 7;
    return Status::Ok();
  };
  hooks.info = [](std::string* json) { json->append(",\"epoch\":7"); };
  RequestHandler handler(std::move(hooks));

  std::string out;
  handler.HandleLine(R"({"op":"reload"})", *router_, *threaded_, &out);
  EXPECT_EQ(out, "{\"ok\":true,\"op\":\"reload\",\"epoch\":7}\n");
  EXPECT_EQ(seen_path, "") << "no \"path\" key means the server default";

  out.clear();
  handler.HandleLine(R"({"op":"reload","path":"/tmp/new.idx"})", *router_,
                     *threaded_, &out);
  EXPECT_EQ(out, "{\"ok\":true,\"op\":\"reload\",\"epoch\":7}\n");
  EXPECT_EQ(seen_path, "/tmp/new.idx");

  // The info hook's extra fields land inside the info object.
  out.clear();
  handler.HandleLine(R"({"op":"info"})", *router_, *threaded_, &out);
  EXPECT_NE(out.find(",\"epoch\":7}"), std::string::npos) << out;
}

TEST_F(WireTest, UpdateWeightsParsesTriplesAndEnforcesTheBatchCap) {
  WireRequest req;
  ASSERT_TRUE(ParseRequestLine(
                  R"({"op":"update_weights","edges":[[0,1,7],[2,3,900]]})",
                  &req)
                  .ok());
  ASSERT_EQ(req.edges.size(), 2u);
  EXPECT_EQ(req.edges[0].u, 0u);
  EXPECT_EQ(req.edges[0].v, 1u);
  EXPECT_EQ(req.edges[0].weight, 7u);
  EXPECT_EQ(req.edges[1].weight, 900u);

  // Ids beyond the 32-bit vertex space degrade to kInvalidVertex at parse
  // time (rejected downstream by the repair), they never wrap.
  ASSERT_TRUE(ParseRequestLine(
                  R"({"op":"update_weights","edges":[[18446744073709551615,)"
                  R"(4294967296,3]]})",
                  &req)
                  .ok());
  EXPECT_EQ(req.edges[0].u, kInvalidVertex);
  EXPECT_EQ(req.edges[0].v, kInvalidVertex);

  // One triple past the batch cap: a parse error, and the message names it.
  std::string line = R"({"op":"update_weights","edges":[)";
  for (uint64_t i = 0; i <= kMaxUpdateEdges; ++i) {
    if (i != 0) line += ",";
    line += "[0,1,2]";
  }
  line += "]}";
  const Status st = ParseRequestLine(line, &req);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("cap"), std::string::npos);
  // The socket-free fixture answers it with ok:false, never an abort.
  EXPECT_EQ(Handle(line).find("{\"ok\":false"), 0u);
}

TEST_F(WireTest, UpdateWeightsOpRoutesThroughHook) {
  // Hook-less handlers answer update_weights with Unimplemented — including
  // payloads whose ids only fail downstream (out-of-range clamp).
  const std::string bare =
      Handle(R"({"op":"update_weights","edges":[[0,1,5]]})");
  EXPECT_EQ(bare.find("{\"ok\":false,\"code\":\"Unimplemented\""), 0u);

  std::vector<EdgeDelta> seen;
  bool admitted_queries = true;
  ServerHooks hooks;
  hooks.admit = [&](uint64_t* retry_after_ms) {
    *retry_after_ms = 100;
    return admitted_queries;
  };
  hooks.update_weights = [&](std::span<const EdgeDelta> edges,
                             uint64_t* epoch) {
    seen.assign(edges.begin(), edges.end());
    *epoch = 3;
    return Status::Ok();
  };
  RequestHandler handler(std::move(hooks));

  std::string out;
  handler.HandleLine(R"({"op":"update_weights","edges":[[4,9,250]]})",
                     *router_, *threaded_, &out);
  EXPECT_EQ(out, "{\"ok\":true,\"op\":\"update_weights\",\"epoch\":3}\n");
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].u, 4u);
  EXPECT_EQ(seen[0].v, 9u);
  EXPECT_EQ(seen[0].weight, 250u);

  // An empty batch is an error before the hook runs.
  out.clear();
  handler.HandleLine(R"({"op":"update_weights","edges":[]})", *router_,
                     *threaded_, &out);
  EXPECT_EQ(out.find("{\"ok\":false,\"code\":\"InvalidArgument\""), 0u);

  // Admin ops bypass admission: an overloaded server must still take
  // weight updates (same contract as reload).
  admitted_queries = false;
  out.clear();
  handler.HandleLine(R"({"op":"update_weights","edges":[[4,9,260]]})",
                     *router_, *threaded_, &out);
  EXPECT_EQ(out, "{\"ok\":true,\"op\":\"update_weights\",\"epoch\":3}\n");
  EXPECT_EQ(seen[0].weight, 260u);

  // A failing hook surfaces its Status; the response carries no epoch.
  ServerHooks failing;
  failing.update_weights = [](std::span<const EdgeDelta>, uint64_t*) {
    return Status::InvalidArgument("no such edge");
  };
  RequestHandler rejecting(std::move(failing));
  out.clear();
  rejecting.HandleLine(R"({"op":"update_weights","edges":[[0,1,5]]})",
                       *router_, *threaded_, &out);
  EXPECT_EQ(out.find("{\"ok\":false,\"code\":\"InvalidArgument\""), 0u);
}

TEST_F(WireTest, ResponsesMatchRouterDistances) {
  const std::string batch =
      Handle(R"({"op":"batch","source":0,"targets":[1,5,9]})");
  std::string expected = "{\"ok\":true,\"op\":\"batch\",\"distances\":[";
  expected += std::to_string(*router_->Distance(0, 1)) + "," +
              std::to_string(*router_->Distance(0, 5)) + "," +
              std::to_string(*router_->Distance(0, 9)) + "]}";
  EXPECT_EQ(batch, expected);

  const std::string matrix =
      Handle(R"({"op":"matrix","sources":[0,2],"targets":[3,4]})");
  std::string mexpected = "{\"ok\":true,\"op\":\"matrix\",\"rows\":2,"
                          "\"cols\":2,\"distances\":[";
  mexpected += std::to_string(*router_->Distance(0, 3)) + "," +
               std::to_string(*router_->Distance(0, 4)) + "," +
               std::to_string(*router_->Distance(2, 3)) + "," +
               std::to_string(*router_->Distance(2, 4)) + "]}";
  EXPECT_EQ(matrix, mexpected);

  const std::string pairwise =
      Handle(R"({"op":"point","sources":[1,2],"targets":[3,4]})");
  std::string pexpected = "{\"ok\":true,\"op\":\"point\",\"distances\":[";
  pexpected += std::to_string(*router_->Distance(1, 3)) + "," +
               std::to_string(*router_->Distance(2, 4)) + "]}";
  EXPECT_EQ(pairwise, pexpected);

  // Unreachable (here: an out-of-range id under the lenient policy)
  // serializes as null.
  const std::string lenient = Handle(
      R"({"op":"batch","source":0,"targets":[999999],"missing":"unreachable"})");
  EXPECT_EQ(lenient, "{\"ok\":true,\"op\":\"batch\",\"distances\":[null]}");

  // K-nearest mirrors the facade's k-nearest request exactly.
  const auto nearest =
      KNearest(*router_, 0, std::vector<Vertex>{7, 8, 9, 10}, 2);
  ASSERT_TRUE(nearest.ok());
  std::string kexpected = "{\"ok\":true,\"op\":\"knearest\",\"count\":" +
                          std::to_string(nearest->size()) + ",\"neighbors\":[";
  for (size_t i = 0; i < nearest->size(); ++i) {
    if (i != 0) kexpected += ",";
    kexpected += "[";
    kexpected += std::to_string((*nearest)[i].first);
    kexpected += ",";
    kexpected += std::to_string((*nearest)[i].second);
    kexpected += "]";
  }
  kexpected += "]}";
  EXPECT_EQ(Handle(R"({"op":"knearest","source":0,"candidates":[7,8,9,10],)"
                   R"("k":2})"),
            kexpected);

  // k == 0: empty result, not an error — the facade edge case, end to end.
  EXPECT_EQ(
      Handle(R"({"op":"knearest","source":0,"candidates":[1,2],"k":0})"),
      "{\"ok\":true,\"op\":\"knearest\",\"count\":0,\"neighbors\":[]}");
  EXPECT_EQ(Handle(R"({"op":"knearest","source":0,"candidates":[],"k":3})"),
            "{\"ok\":true,\"op\":\"knearest\",\"count\":0,\"neighbors\":[]}");

  // Out-of-range ids under the default policy are request errors.
  const std::string oor = Handle(R"({"op":"batch","source":0,)"
                                 R"("targets":[999999]})");
  EXPECT_EQ(oor.find("{\"ok\":false,\"code\":\"InvalidArgument\""), 0u);

  // An expired deadline surfaces its own code.
  const std::string late = Handle(
      R"({"op":"matrix","sources":[0,1,2],"targets":[3,4,5],"deadline_ms":0})");
  EXPECT_EQ(late.find("{\"ok\":true"), 0u)
      << "deadline_ms:0 means unlimited, not instant";
  EXPECT_EQ(Handle(R"({"op":"ping"})"), "{\"ok\":true,\"op\":\"ping\"}");
  const std::string info = Handle(R"({"op":"info"})");
  EXPECT_EQ(info.find("{\"ok\":true,\"op\":\"info\",\"directed\":false,"
                      "\"vertices\":"),
            0u);
}

TEST_F(WireTest, RouteResponsesMatchRouterRoutes) {
  RoutePath expected;
  ASSERT_TRUE(router_->Route(0, 37, &expected).ok());
  ASSERT_GE(expected.vertices.size(), 2u);
  std::string want = "{\"ok\":true,\"op\":\"route\",\"distance\":" +
                     std::to_string(expected.weight) + ",\"vertices\":[";
  for (size_t i = 0; i < expected.vertices.size(); ++i) {
    if (i != 0) want += ",";
    want += std::to_string(expected.vertices[i]);
  }
  want += "]}";
  EXPECT_EQ(Handle(R"({"op":"route","source":0,"target":37})"), want);
  // k omitted, k:0 and k:1 are all the single-path shape.
  EXPECT_EQ(Handle(R"({"op":"route","source":0,"target":37,"k":1})"), want);

  // A route to itself is the one-vertex path of weight zero.
  EXPECT_EQ(Handle(R"({"op":"route","source":5,"target":5})"),
            "{\"ok\":true,\"op\":\"route\",\"distance\":0,\"vertices\":[5]}");

  // k >= 2 mirrors Router::Routes exactly: ascending alternatives, the
  // first one optimal.
  const auto alts = router_->Routes(0, 37, 3);
  ASSERT_TRUE(alts.ok()) << alts.status().ToString();
  ASSERT_FALSE(alts->empty());
  EXPECT_EQ((*alts)[0].weight, expected.weight);
  std::string kwant = "{\"ok\":true,\"op\":\"route\",\"count\":" +
                      std::to_string(alts->size()) + ",\"routes\":[";
  for (size_t i = 0; i < alts->size(); ++i) {
    if (i != 0) kwant += ",";
    kwant += "{\"distance\":" + std::to_string((*alts)[i].weight) +
             ",\"vertices\":[";
    for (size_t j = 0; j < (*alts)[i].vertices.size(); ++j) {
      if (j != 0) kwant += ",";
      kwant += std::to_string((*alts)[i].vertices[j]);
    }
    kwant += "]}";
  }
  kwant += "]}";
  EXPECT_EQ(Handle(R"({"op":"route","source":0,"target":37,"k":3})"), kwant);

  // Unreachable (an out-of-range id under the lenient policy): distance
  // null with no vertices; count 0 with no routes for k >= 2.
  EXPECT_EQ(Handle(R"({"op":"route","source":0,"target":999999,)"
                   R"("missing":"unreachable"})"),
            "{\"ok\":true,\"op\":\"route\",\"distance\":null,"
            "\"vertices\":[]}");
  EXPECT_EQ(Handle(R"({"op":"route","source":0,"target":999999,"k":3,)"
                   R"("missing":"unreachable"})"),
            "{\"ok\":true,\"op\":\"route\",\"count\":0,\"routes\":[]}");
}

TEST_F(WireTest, HostileRoutePayloadsAreErrorsNotAborts) {
  const char* kBad[] = {
      R"({"op":"route"})",                               // no endpoints
      R"({"op":"route","source":0})",                    // missing target
      R"({"op":"route","target":5})",                    // missing source
      R"({"op":"route","sources":[0,1],"target":5})",    // two sources
      R"({"op":"route","source":0,"targets":[5,6]})",    // two targets
      R"({"op":"route","source":0,"targets":[]})",       // empty target list
      R"({"op":"route","source":0,"target":5,"k":-1})",  // negative k
      R"({"op":"route","source":0,"target":5,"k":1.5})",  // fractional k
      R"({"op":"route","source":0,"target":5,"k":17})",   // just over the cap
      R"({"op":"route","source":0,"target":5,"k":10000})",     // far over
      R"({"op":"route","source":0,"target":5,"k":999999999999999999999})",
      R"({"op":"route","source":-3,"target":5})",        // negative id
      R"({"op":"route","source":"zero","target":5})",    // string id
      R"({"op":"route","source":0,"target":[5]})",       // array target
      R"({"op":"route","source":0,"target":5,"edges":7})",  // non-array edges
      R"({"op":"route","source":0,"target":999999})",    // OOR, default policy
      R"({"op":"route","source":0,"target":5,"k":})",    // truncated
  };
  for (const char* line : kBad) {
    const std::string response = Handle(line);
    EXPECT_EQ(response.find("{\"ok\":false"), 0u) << line << " -> "
                                                  << response;
  }
  // The "missing":"unchecked" facade policy is not a wire surface: ids on
  // the wire are untrusted by definition.
  EXPECT_EQ(Handle(R"({"op":"route","source":0,"target":5,)"
                   R"("missing":"unchecked"})")
                .find("{\"ok\":false"),
            0u);
  // The cap itself is fine.
  EXPECT_EQ(Handle(R"({"op":"route","source":0,"target":5,"k":16})")
                .find("{\"ok\":true"),
            0u);
}

TEST_F(WireTest, RouteOnDistanceOnlyIndexIsFailedPrecondition) {
  // A hint-less index file opened for serving answers
  // distances but has nothing to unpack routes against: ok:false with
  // FailedPrecondition — and the connection keeps serving.
  BuildOptions options;
  options.route_hints = false;
  Result<Router> hintless = Router::Build(WireTestGraph(), options);
  ASSERT_TRUE(hintless.ok()) << hintless.status().ToString();
  const std::string path =
      ::testing::TempDir() + "/wire_hintless_route.hc2l";
  ASSERT_TRUE(hintless->Save(path).ok());
  Result<Router> opened = Router::Open(path);
  std::remove(path.c_str());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Result<ThreadedRouter> threaded = opened->WithThreads(1);
  ASSERT_TRUE(threaded.ok());

  RequestHandler handler;
  std::string out;
  handler.HandleLine(R"({"op":"route","source":0,"target":7})", *opened,
                     *threaded, &out);
  EXPECT_EQ(out.find("{\"ok\":false,\"code\":\"FailedPrecondition\""), 0u)
      << out;
  out.clear();
  handler.HandleLine(R"({"op":"route","source":0,"target":7,"k":3})",
                     *opened, *threaded, &out);
  EXPECT_EQ(out.find("{\"ok\":false,\"code\":\"FailedPrecondition\""), 0u)
      << out;
  // Distances still serve on the same connection.
  out.clear();
  handler.HandleLine(R"({"op":"batch","source":0,"targets":[7]})", *opened,
                     *threaded, &out);
  EXPECT_EQ(out, "{\"ok\":true,\"op\":\"batch\",\"distances\":[" +
                     std::to_string(*opened->Distance(0, 7)) + "]}\n");
}

TEST_F(WireTest, OversizedRequestIsRejected) {
  // A matrix whose result would exceed the per-request cap fails cleanly.
  std::string line = R"({"op":"matrix","sources":[)";
  const size_t side = 2049;  // 2049 * 2048 > 2^22
  for (size_t i = 0; i < side; ++i) {
    if (i != 0) line += ",";
    line += std::to_string(i % 100);
  }
  line += R"(],"targets":[)";
  for (size_t i = 0; i < side - 1; ++i) {
    if (i != 0) line += ",";
    line += std::to_string(i % 100);
  }
  line += "]}";
  const std::string response = Handle(line);
  EXPECT_EQ(response.find("{\"ok\":false,\"code\":\"InvalidArgument\""), 0u);
  EXPECT_NE(response.find("caps one request"), std::string::npos);
}

// ------------------------------------------------------------------ TCP ---

TEST_F(WireTest, TcpServerRoundTrip) {
  ServerOptions options;
  options.port = 0;  // ephemeral
  options.num_threads = 2;
  Result<QueryServer> server = QueryServer::Start(*router_, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_NE(server->port(), 0);

  TestClient client(server->port());
  ASSERT_TRUE(client.connected());

  // Two pipelined requests in one write...
  ASSERT_TRUE(client.Send("{\"op\":\"ping\"}\n{\"op\":\"batch\",\"source\":0,"
                          "\"targets\":[1]}\n"));
  EXPECT_EQ(client.ReadLine(), "{\"ok\":true,\"op\":\"ping\"}");
  EXPECT_EQ(client.ReadLine(),
            "{\"ok\":true,\"op\":\"batch\",\"distances\":[" +
                std::to_string(*router_->Distance(0, 1)) + "]}");

  // ...a request split across writes...
  ASSERT_TRUE(client.Send("{\"op\":\"batch\",\"source\":0,"));
  ASSERT_TRUE(client.Send("\"targets\":[2]}\n"));
  EXPECT_EQ(client.ReadLine(),
            "{\"ok\":true,\"op\":\"batch\",\"distances\":[" +
                std::to_string(*router_->Distance(0, 2)) + "]}");

  // ...and a malformed line keeps the connection alive with an error.
  ASSERT_TRUE(client.Send("definitely not json\n{\"op\":\"ping\"}\n"));
  EXPECT_EQ(client.ReadLine().find("{\"ok\":false"), 0u);
  EXPECT_EQ(client.ReadLine(), "{\"ok\":true,\"op\":\"ping\"}");

  // A second concurrent connection works (shared engine).
  TestClient second(server->port());
  ASSERT_TRUE(second.connected());
  ASSERT_TRUE(second.Send("{\"op\":\"info\"}\n"));
  EXPECT_EQ(second.ReadLine().find("{\"ok\":true,\"op\":\"info\""), 0u);

  EXPECT_GE(server->connections_accepted(), 2u);
  server->Stop();  // joins every connection thread; idempotent
  server->Stop();
}

TEST_F(WireTest, TcpServerUpdateWeightsSwapsTheServingSnapshot) {
  // End to end over a real socket: a live weight update repairs a standby
  // index, swaps it in with an epoch bump, and later queries answer from
  // the repaired snapshot — while a failed update changes nothing.
  const Graph g = WireTestGraph();
  ServerOptions options;
  options.port = 0;
  options.num_threads = 1;
  Result<QueryServer> server = QueryServer::Start(*router_, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  TestClient client(server->port());
  ASSERT_TRUE(client.connected());

  // A non-edge is rejected and leaves the serving snapshot untouched.
  ASSERT_TRUE(
      client.Send("{\"op\":\"update_weights\",\"edges\":[[0,99,5]]}\n"));
  EXPECT_EQ(client.ReadLine().find(
                "{\"ok\":false,\"code\":\"InvalidArgument\""),
            0u);
  EXPECT_EQ(server->epoch(), 0u);

  // A real edge, made much heavier: the expected answers come from the
  // facade's own copy-on-repair applied to an identical router.
  const Edge edge = g.UndirectedEdges()[0];
  const Dist before = *router_->Distance(edge.u, edge.v);
  const std::vector<EdgeDelta> deltas = {{edge.u, edge.v, 7777}};
  Result<Router> expected = router_->UpdateWeights(deltas);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  ASSERT_TRUE(client.Send("{\"op\":\"update_weights\",\"edges\":[[" +
                          std::to_string(edge.u) + "," +
                          std::to_string(edge.v) + ",7777]]}\n"));
  EXPECT_EQ(client.ReadLine(),
            "{\"ok\":true,\"op\":\"update_weights\",\"epoch\":1}");
  EXPECT_EQ(server->epoch(), 1u);
  EXPECT_EQ(server->stats().weight_updates, 1u);

  ASSERT_TRUE(client.Send("{\"op\":\"batch\",\"source\":" +
                          std::to_string(edge.u) + ",\"targets\":[" +
                          std::to_string(edge.v) + "]}\n"));
  EXPECT_EQ(client.ReadLine(),
            "{\"ok\":true,\"op\":\"batch\",\"distances\":[" +
                std::to_string(*expected->Distance(edge.u, edge.v)) + "]}");
  // The borrowed router the server started from is untouched.
  EXPECT_EQ(*router_->Distance(edge.u, edge.v), before);

  // The info section reports the update.
  ASSERT_TRUE(client.Send("{\"op\":\"info\"}\n"));
  const std::string info = client.ReadLine();
  EXPECT_NE(info.find("\"epoch\":1"), std::string::npos) << info;
  EXPECT_NE(info.find("\"weight_updates\":1"), std::string::npos) << info;
  server->Stop();
}

TEST_F(WireTest, TcpServerLineCapKeepsConnectionUsable) {
  // An oversized request line costs one error response and is discarded up
  // to its newline; the connection and its buffer stay bounded and usable —
  // a client streaming garbage cannot grow server memory past the cap.
  ServerOptions options;
  options.port = 0;
  options.num_threads = 1;
  options.max_line_bytes = 64;
  Result<QueryServer> server = QueryServer::Start(*router_, options);
  ASSERT_TRUE(server.ok());
  TestClient client(server->port());
  ASSERT_TRUE(client.connected());
  // Far over the cap, no newline.
  ASSERT_TRUE(client.Send(std::string(100'000, 'x')));
  const std::string response = client.ReadLine();
  EXPECT_EQ(response.find("{\"ok\":false"), 0u);
  EXPECT_NE(response.find("byte cap"), std::string::npos);
  // More bytes of the same oversized line are swallowed silently...
  ASSERT_TRUE(client.Send(std::string(100'000, 'y')));
  // ...and the newline ends discard mode: the next request works.
  ASSERT_TRUE(client.Send("\n{\"op\":\"ping\"}\n"));
  EXPECT_EQ(client.ReadLine(), "{\"ok\":true,\"op\":\"ping\"}");
  server->Stop();
}

TEST_F(WireTest, TcpServerManyShortConnectionsStayFdBounded) {
  // A burst of connect-query-disconnect clients (far more than any fd
  // budget if descriptors leaked until the next accept's reap) must all be
  // served: connection fds are released eagerly when the handler finishes,
  // not when the accept loop next sweeps.
  ServerOptions options;
  options.port = 0;
  options.num_threads = 1;
  Result<QueryServer> server = QueryServer::Start(*router_, options);
  ASSERT_TRUE(server.ok());
  for (int i = 0; i < 300; ++i) {
    TestClient client(server->port());
    ASSERT_TRUE(client.connected()) << "connection " << i;
    ASSERT_TRUE(client.Send("{\"op\":\"ping\"}\n"));
    ASSERT_EQ(client.ReadLine(), "{\"ok\":true,\"op\":\"ping\"}")
        << "connection " << i;
  }
  EXPECT_GE(server->connections_accepted(), 300u);
  server->Stop();
}

TEST_F(WireTest, TcpServerMaxRequestsPerConnectionCycles) {
  ServerOptions options;
  options.port = 0;
  options.num_threads = 1;
  options.limits.max_requests_per_connection = 2;
  Result<QueryServer> server = QueryServer::Start(*router_, options);
  ASSERT_TRUE(server.ok());
  TestClient client(server->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(
      "{\"op\":\"ping\"}\n{\"op\":\"ping\"}\n{\"op\":\"ping\"}\n"));
  EXPECT_EQ(client.ReadLine(), "{\"ok\":true,\"op\":\"ping\"}");
  EXPECT_EQ(client.ReadLine(), "{\"ok\":true,\"op\":\"ping\"}");
  // The per-connection budget is spent: the server closes after two.
  EXPECT_EQ(client.ReadLine(), "<connection closed>");
  server->Stop();
}

/// A `rows` x `cols` matrix request line (with its newline) over ids that
/// cycle through the graph's `num_vertices`.
std::string MatrixRequest(size_t rows, size_t cols, size_t num_vertices,
                          bool stream) {
  std::string request = "{\"op\":\"matrix\",\"sources\":[";
  for (size_t i = 0; i < rows; ++i) {
    if (i != 0) request += ',';
    request += std::to_string(i % num_vertices);
  }
  request += "],\"targets\":[";
  for (size_t i = 0; i < cols; ++i) {
    if (i != 0) request += ',';
    request += std::to_string((i * 7) % num_vertices);
  }
  request += stream ? "],\"stream\":true}\n" : "]}\n";
  return request;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

TEST_F(WireTest, TcpServerEvictsIdleAndSlowlorisConnections) {
  // A loop sweeps its connections only once its nearest deadline passes;
  // two connections with different deadlines on one loop must each still be
  // evicted on time, with one polite DeadlineExceeded line before the close.
  ServerOptions options;
  options.port = 0;
  options.num_threads = 1;
  options.reactor_threads = 1;
  options.limits.idle_timeout_ms = 400;
  options.limits.read_timeout_ms = 150;
  Result<QueryServer> server = QueryServer::Start(*router_, options);
  ASSERT_TRUE(server.ok());
  TestClient idle(server->port());
  TestClient slow(server->port());
  ASSERT_TRUE(idle.connected());
  ASSERT_TRUE(slow.connected());
  ASSERT_TRUE(idle.Send("{\"op\":\"ping\"}\n"));
  ASSERT_EQ(idle.ReadLine(), "{\"ok\":true,\"op\":\"ping\"}");
  const auto start = std::chrono::steady_clock::now();
  // A request line that never completes.
  ASSERT_TRUE(slow.Send("{\"op\":\"ping\""));
  EXPECT_EQ(slow.ReadLine(),
            "{\"ok\":false,\"code\":\"DeadlineExceeded\",\"message\":"
            "\"connection evicted: request line not completed in time\"}");
  EXPECT_EQ(slow.ReadLine(), "<connection closed>");
  EXPECT_EQ(idle.ReadLine(),
            "{\"ok\":false,\"code\":\"DeadlineExceeded\",\"message\":"
            "\"connection evicted: idle timeout\"}");
  EXPECT_EQ(idle.ReadLine(), "<connection closed>");
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(300))
      << "the idle eviction fired early";
  server->Stop();
}

TEST_F(WireTest, TcpServerCutsWriteStalledConnections) {
  // A client that stops reading is disconnected once the server's writes to
  // it have stayed blocked for write_timeout_ms.
  ServerOptions options;
  options.port = 0;
  options.num_threads = 1;
  options.limits.write_timeout_ms = 300;
  Result<QueryServer> server = QueryServer::Start(*router_, options);
  ASSERT_TRUE(server.ok());
  TestClient stalled(server->port(), /*rcvbuf_bytes=*/4096);
  ASSERT_TRUE(stalled.connected());
  ASSERT_TRUE(stalled.Send("{\"op\":\"ping\"}\n"));
  ASSERT_EQ(stalled.ReadLine(), "{\"ok\":true,\"op\":\"ping\"}");
  // One monolithic 2^22-entry response (tens of MB), never read.
  ASSERT_TRUE(
      stalled.Send(MatrixRequest(2048, 2048, router_->NumVertices(), false)));
  EXPECT_TRUE(WaitFor([&] { return server->stats().connections_live == 0; },
                      std::chrono::seconds(30)));
  const std::string delivered = stalled.ReadToClose();
  EXPECT_FALSE(EndsWith(delivered, "]}\n"))
      << "the stalled response was delivered whole";
  EXPECT_FALSE(EndsWith(delivered, "<ReadToClose timed out>"));
  server->Stop();
}

TEST_F(WireTest, TcpServerSpreadsConnectionsAcrossLoops) {
  // A new connection goes to the loop with the fewest live connections, so
  // four long-lived clients on three loops land 2/1/1, never 3/1/0, and the
  // info op reports the placement.
  ServerOptions options;
  options.port = 0;
  options.num_threads = 1;
  options.reactor_threads = 3;
  Result<QueryServer> server = QueryServer::Start(*router_, options);
  ASSERT_TRUE(server.ok());
  std::vector<std::unique_ptr<TestClient>> clients;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(std::make_unique<TestClient>(server->port()));
    ASSERT_TRUE(clients.back()->connected());
    // An answered ping pins the connection as accepted and placed.
    ASSERT_TRUE(clients.back()->Send("{\"op\":\"ping\"}\n"));
    ASSERT_EQ(clients.back()->ReadLine(), "{\"ok\":true,\"op\":\"ping\"}");
  }
  ASSERT_TRUE(clients[0]->Send("{\"op\":\"info\"}\n"));
  const std::string info = clients[0]->ReadLine();
  const std::string key = "\"loop_connections\":[";
  const size_t at = info.find(key);
  ASSERT_NE(at, std::string::npos) << info;
  std::vector<uint64_t> counts;
  for (const char* p = info.c_str() + at + key.size();;) {
    char* end = nullptr;
    counts.push_back(std::strtoull(p, &end, 10));
    if (*end != ',') break;
    p = end + 1;
  }
  ASSERT_EQ(counts.size(), 3u) << info;
  EXPECT_EQ(counts[0] + counts[1] + counts[2], 4u) << info;
  const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
  EXPECT_LE(*hi - *lo, 1u) << info;
  server->Stop();
}

TEST_F(WireTest, TcpServerReloadIsVisibleToTheNextLineOnEveryLoop) {
  // A second index whose answer for one probe pair differs from the first.
  RoadNetworkOptions opt;
  opt.rows = 10;
  opt.cols = 10;
  opt.seed = 7;
  Result<Router> other = Router::Build(GenerateRoadNetwork(opt));
  ASSERT_TRUE(other.ok());
  Vertex probe = kInvalidVertex;
  for (Vertex t = 1; t < router_->NumVertices(); ++t) {
    if (*router_->Distance(0, t) != *other->Distance(0, t)) {
      probe = t;
      break;
    }
  }
  ASSERT_NE(probe, kInvalidVertex) << "seeds produced identical distances";
  const std::string other_path =
      ::testing::TempDir() + "/hc2l_wire_reload_visibility.idx";
  ASSERT_TRUE(other->Save(other_path).ok());

  ServerOptions options;
  options.port = 0;
  options.num_threads = 1;
  options.reactor_threads = 2;
  Result<QueryServer> server = QueryServer::Start(*router_, options);
  ASSERT_TRUE(server.ok());
  TestClient reloader(server->port());
  TestClient bystander(server->port());
  for (TestClient* client : {&reloader, &bystander}) {
    ASSERT_TRUE(client->connected());
    ASSERT_TRUE(client->Send("{\"op\":\"ping\"}\n"));
    ASSERT_EQ(client->ReadLine(), "{\"ok\":true,\"op\":\"ping\"}");
  }
  ASSERT_TRUE(reloader.Send("{\"op\":\"info\"}\n"));
  ASSERT_NE(reloader.ReadLine().find("\"loop_connections\":[1,1]"),
            std::string::npos)
      << "the two clients must sit on different loops";

  const std::string point =
      "{\"op\":\"point\",\"sources\":[0],\"targets\":[" +
      std::to_string(probe) + "]}\n";
  const auto answer = [](Dist d) {
    return "{\"ok\":true,\"op\":\"point\",\"distances\":[" +
           std::to_string(d) + "]}";
  };
  const std::string before = answer(*router_->Distance(0, probe));
  const std::string after = answer(*other->Distance(0, probe));
  ASSERT_TRUE(bystander.Send(point));
  EXPECT_EQ(bystander.ReadLine(), before);

  // One write: a point prepared before the reload answers from the old
  // index; the point after it answers from the new one.
  ASSERT_TRUE(reloader.Send(point + "{\"op\":\"reload\",\"path\":\"" +
                            other_path + "\"}\n" + point));
  EXPECT_EQ(reloader.ReadLine(), before);
  EXPECT_EQ(reloader.ReadLine(),
            "{\"ok\":true,\"op\":\"reload\",\"epoch\":1}");
  EXPECT_EQ(reloader.ReadLine(), after);
  // The other loop's next line sees the new index too.
  ASSERT_TRUE(bystander.Send(point));
  EXPECT_EQ(bystander.ReadLine(), after);
  std::remove(other_path.c_str());
  server->Stop();
}

// --- Streaming responses ---------------------------------------------------

/// A matrix request whose streamed response spans several chunk frames:
/// 100 sources x 1000 targets = 100k entries, 65 rows (65000 entries) per
/// chunk at kStreamChunkEntries = 65536 -> two chunks.
std::string MultiChunkMatrixRequest(size_t num_vertices, bool stream) {
  std::string request = "{\"op\":\"matrix\",\"sources\":[";
  for (size_t i = 0; i < 100; ++i) {
    if (i != 0) request += ',';
    request += std::to_string(i % num_vertices);
  }
  request += "],\"targets\":[";
  for (size_t i = 0; i < 1000; ++i) {
    if (i != 0) request += ',';
    request += std::to_string((i * 7) % num_vertices);
  }
  request += stream ? "],\"stream\":true}" : "]}";
  return request;
}

TEST_F(WireTest, StreamedMatrixEqualsMonolithicResponse) {
  const std::string mono =
      Handle(MultiChunkMatrixRequest(router_->NumVertices(), false));
  ASSERT_EQ(mono.compare(0, 10, "{\"ok\":true"), 0) << mono.substr(0, 120);

  std::string streamed;
  handler_->HandleLine(MultiChunkMatrixRequest(router_->NumVertices(), true),
                       *router_, *threaded_, &streamed);
  StreamReassembler reassembler;
  size_t frames = 0;
  size_t start = 0;
  while (start < streamed.size()) {
    const size_t nl = streamed.find('\n', start);
    ASSERT_NE(nl, std::string::npos);
    const Status fed =
        reassembler.Feed(std::string_view(streamed).substr(start, nl - start));
    ASSERT_TRUE(fed.ok()) << fed.ToString();
    ++frames;
    start = nl + 1;
  }
  EXPECT_TRUE(reassembler.done());
  EXPECT_EQ(reassembler.rows(), 100u);
  EXPECT_EQ(reassembler.cols(), 1000u);
  EXPECT_EQ(reassembler.chunks(), 2u);
  EXPECT_EQ(frames, 4u);  // header + 2 chunk frames + trailer
  ASSERT_EQ(reassembler.distances().size(), 100'000u);

  // The reassembled entries must be bit-identical to the monolithic
  // response's distances array, parsed straight out of its JSON text.
  const size_t open = mono.find("\"distances\":[");
  ASSERT_NE(open, std::string::npos);
  const char* p = mono.data() + open + std::strlen("\"distances\":[");
  for (size_t i = 0; i < reassembler.distances().size(); ++i) {
    char* end = nullptr;
    const Dist mono_dist = static_cast<Dist>(std::strtoull(p, &end, 10));
    ASSERT_NE(p, end) << "monolithic distances array ended early at " << i;
    EXPECT_EQ(reassembler.distances()[i], mono_dist) << "entry " << i;
    p = end + 1;  // past ',' (or past ']' on the final entry)
  }
}

TEST_F(WireTest, StreamReassemblyAcrossArbitraryReadBoundaries) {
  // The client may receive the stream in reads that split frames anywhere
  // — including mid-number. Accumulating bytes 7 at a time and feeding each
  // completed line must reassemble the identical result.
  std::string streamed;
  handler_->HandleLine(MultiChunkMatrixRequest(router_->NumVertices(), true),
                       *router_, *threaded_, &streamed);
  StreamReassembler whole_lines;
  for (size_t start = 0; start < streamed.size();) {
    const size_t nl = streamed.find('\n', start);
    const std::string_view line =
        std::string_view(streamed).substr(start, nl - start);
    ASSERT_TRUE(whole_lines.Feed(line).ok());
    start = nl + 1;
  }
  StreamReassembler fragmented;
  std::string buffer;
  for (size_t offset = 0; offset < streamed.size(); offset += 7) {
    const size_t take = std::min<size_t>(7, streamed.size() - offset);
    buffer.append(streamed, offset, take);
    size_t nl;
    while ((nl = buffer.find('\n')) != std::string::npos) {
      const Status fed =
          fragmented.Feed(std::string_view(buffer).substr(0, nl));
      ASSERT_TRUE(fed.ok()) << fed.ToString();
      buffer.erase(0, nl + 1);
    }
  }
  EXPECT_TRUE(buffer.empty());
  EXPECT_TRUE(fragmented.done());
  EXPECT_EQ(fragmented.distances(), whole_lines.distances());
}

TEST_F(WireTest, StreamMalformedContinuationsAreRejected) {
  const std::string header =
      R"({"ok":true,"op":"matrix","stream":true,"rows":2,"cols":2,)"
      R"("chunk_entries":4})";
  const std::string chunk0 =
      R"({"ok":true,"op":"matrix","chunk":0,"count":4,)"
      R"("distances":[1,2,3,4]})";
  const std::string trailer =
      R"({"ok":true,"op":"matrix","done":true,"chunks":1,"entries":4})";

  {  // The happy path the mutations below break.
    StreamReassembler r;
    EXPECT_TRUE(r.Feed(header).ok());
    EXPECT_TRUE(r.Feed(chunk0).ok());
    EXPECT_TRUE(r.Feed(trailer).ok());
    EXPECT_TRUE(r.done());
    EXPECT_EQ(r.distances(), (std::vector<Dist>{1, 2, 3, 4}));
  }
  {  // Out-of-order chunk index.
    const std::string chunk1 =
        R"({"ok":true,"op":"matrix","chunk":1,"count":4,)"
        R"("distances":[1,2,3,4]})";
    StreamReassembler r;
    EXPECT_TRUE(r.Feed(header).ok());
    EXPECT_FALSE(r.Feed(chunk1).ok());
    // Poisoned: even a now-correct frame is refused.
    EXPECT_FALSE(r.Feed(chunk0).ok());
  }
  {  // "count" disagreeing with the distances actually carried.
    const std::string short_chunk =
        R"({"ok":true,"op":"matrix","chunk":0,"count":4,)"
        R"("distances":[1,2,3]})";
    StreamReassembler r;
    EXPECT_TRUE(r.Feed(header).ok());
    EXPECT_FALSE(r.Feed(short_chunk).ok());
  }
  {  // Trailer before all rows*cols entries arrived.
    StreamReassembler r;
    EXPECT_TRUE(r.Feed(header).ok());
    EXPECT_FALSE(r.Feed(trailer).ok());
  }
  {  // Any frame after the done trailer.
    StreamReassembler r;
    EXPECT_TRUE(r.Feed(header).ok());
    EXPECT_TRUE(r.Feed(chunk0).ok());
    EXPECT_TRUE(r.Feed(trailer).ok());
    EXPECT_FALSE(r.Feed(chunk0).ok());
  }
  {  // A non-header first frame.
    StreamReassembler r;
    EXPECT_FALSE(r.Feed(chunk0).ok());
  }
  {  // A server-side mid-stream abort surfaces its code to the caller.
    const std::string abort_line =
        R"({"ok":false,"code":"DeadlineExceeded","message":"expired"})";
    StreamReassembler r;
    EXPECT_TRUE(r.Feed(header).ok());
    EXPECT_EQ(r.Feed(abort_line).code(), StatusCode::kDeadlineExceeded);
  }
  {  // 2^32 x 2^32 wraps rows * cols to 0 in 64 bits; accepting that header
     // would let a chunk-less trailer complete an "empty" matrix.
    StreamReassembler r;
    EXPECT_EQ(r.Feed(R"({"ok":true,"op":"matrix","stream":true,)"
                     R"("rows":4294967296,"cols":4294967296,)"
                     R"("chunk_entries":0})")
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_FALSE(
        r.Feed(R"({"ok":true,"op":"matrix","done":true,"chunks":0})").ok());
    EXPECT_FALSE(r.done());
    EXPECT_TRUE(r.distances().empty());
  }
  {  // A product past kMaxStreamResultEntries, which no server sends.
    const uint64_t rows = uint64_t{1} << 15;
    const uint64_t cols = kMaxStreamResultEntries / rows + 1;
    StreamReassembler r;
    EXPECT_EQ(r.Feed(R"({"ok":true,"op":"matrix","stream":true,"rows":)" +
                     std::to_string(rows) + ",\"cols\":" +
                     std::to_string(cols) + ",\"chunk_entries\":65536}")
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_FALSE(r.done());
  }
}

TEST_F(WireTest, StreamDeadlineExpiryAbortsMidStreamWithoutTrailer) {
  // A flush hook that stalls after each chunk frame for longer than the
  // request deadline: the header and first chunk go out (the deadline clock
  // starts after the header flush and chunk 0 executes well within budget),
  // then the per-chunk deadline check aborts the stream with one
  // {"ok":false,...} line and no trailer.
  ServerHooks hooks;
  int flushes = 0;
  hooks.flush = [&flushes](std::string* /*out*/) {
    if (++flushes > 1) {  // header flush is instant; chunk flushes stall
      std::this_thread::sleep_for(std::chrono::milliseconds(600));
    }
    return true;
  };
  RequestHandler handler(std::move(hooks));
  std::string out;
  std::string request = MultiChunkMatrixRequest(router_->NumVertices(), true);
  request.insert(request.size() - 1, ",\"deadline_ms\":500");
  handler.HandleLine(request, *router_, *threaded_, &out);

  std::vector<std::string> lines;
  for (size_t start = 0; start < out.size();) {
    const size_t nl = out.find('\n', start);
    ASSERT_NE(nl, std::string::npos);
    lines.push_back(out.substr(start, nl - start));
    start = nl + 1;
  }
  ASSERT_EQ(lines.size(), 3u) << out;
  EXPECT_NE(lines[0].find("\"stream\":true"), std::string::npos);
  EXPECT_NE(lines[1].find("\"chunk\":0"), std::string::npos);
  const std::string abort_prefix =
      "{\"ok\":false,\"code\":\"DeadlineExceeded\"";
  EXPECT_EQ(lines[2].rfind(abort_prefix, 0), 0u) << lines[2];
  EXPECT_EQ(out.find("\"done\":true"), std::string::npos);

  // The reassembler sees the abort as a stream error, not as completion.
  StreamReassembler reassembler;
  EXPECT_TRUE(reassembler.Feed(lines[0]).ok());
  EXPECT_TRUE(reassembler.Feed(lines[1]).ok());
  EXPECT_EQ(reassembler.Feed(lines[2]).code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(reassembler.done());
}

TEST_F(WireTest, StalledStreamBlocksOnlyItsOwnLoop) {
  // One client streams a large matrix and reads nothing. Point requests on
  // a second connection, placed on the other loop, are still answered, and
  // the stalled stream is cut once its writes stay blocked for
  // write_timeout_ms.
  ServerOptions options;
  options.port = 0;
  options.num_threads = 1;
  options.reactor_threads = 2;
  options.limits.write_timeout_ms = 500;
  Result<QueryServer> server = QueryServer::Start(*router_, options);
  ASSERT_TRUE(server.ok());
  TestClient streamer(server->port(), /*rcvbuf_bytes=*/4096);
  ASSERT_TRUE(streamer.connected());
  ASSERT_TRUE(streamer.Send("{\"op\":\"ping\"}\n"));
  ASSERT_EQ(streamer.ReadLine(), "{\"ok\":true,\"op\":\"ping\"}");
  TestClient points(server->port());  // placed on the empty loop
  ASSERT_TRUE(points.connected());
  ASSERT_TRUE(points.Send("{\"op\":\"ping\"}\n"));
  ASSERT_EQ(points.ReadLine(), "{\"ok\":true,\"op\":\"ping\"}");

  // 2048 x 4096 entries: far more JSON than the socket buffers and the
  // server's output high-water mark hold.
  ASSERT_TRUE(
      streamer.Send(MatrixRequest(2048, 4096, router_->NumVertices(), true)));
  const std::string header = streamer.ReadLine();
  EXPECT_NE(header.find("\"stream\":true"), std::string::npos)
      << header.substr(0, 300);
  for (Vertex t = 1; t < 20; ++t) {
    ASSERT_TRUE(points.Send("{\"op\":\"point\",\"sources\":[0],\"targets\":[" +
                            std::to_string(t) + "]}\n"));
    EXPECT_EQ(points.ReadLine(),
              "{\"ok\":true,\"op\":\"point\",\"distances\":[" +
                  std::to_string(*router_->Distance(0, t)) + "]}");
  }
  EXPECT_TRUE(WaitFor([&] { return server->stats().connections_live == 1; },
                      std::chrono::seconds(30)));
  const std::string streamed = streamer.ReadToClose();
  EXPECT_EQ(streamed.find("\"done\":true"), std::string::npos);
  EXPECT_FALSE(EndsWith(streamed, "<ReadToClose timed out>"));
  ASSERT_TRUE(points.Send("{\"op\":\"ping\"}\n"));
  EXPECT_EQ(points.ReadLine(), "{\"ok\":true,\"op\":\"ping\"}");
  server->Stop();
}

// --- Request coalescing (the reactor's staged path) ------------------------

TEST_F(WireTest, PreparedStagedResponsesMatchHandleLineByteForByte) {
  // The reactor answers eligible point/batch lines by staging their pairs
  // into one combined engine batch and slicing the result back per request.
  // Every staged response must be byte-identical to what HandleLine would
  // have produced for the same line.
  const std::string kLines[] = {
      R"({"op":"point","sources":[3],"targets":[77]})",
      R"({"op":"batch","source":5,"targets":[1,2,3,4,5,6]})",
      R"({"op":"point","sources":[10,11],"targets":[90,91]})",
      R"({"op":"batch","source":0,"targets":[99]})",
  };
  RequestHandler staging;  // hook-less, like the fixture's handler_
  std::vector<Vertex> sources;
  std::vector<Vertex> targets;
  std::vector<RequestHandler::StagePlan> plans;
  for (const std::string& line : kLines) {
    RequestHandler::StagePlan plan;
    std::string out;
    const RequestHandler::LineAction action =
        staging.Prepare(line, *router_, *threaded_, &sources,
                        &targets, &plan, {}, &out);
    ASSERT_EQ(action, RequestHandler::LineAction::kStaged) << line;
    EXPECT_TRUE(out.empty());
    plans.push_back(plan);
  }
  ASSERT_EQ(sources.size(), targets.size());
  ASSERT_EQ(sources.size(), 10u);  // 1 + 6 + 2 + 1 staged pairs

  QueryRequest request;
  request.kind = QueryKind::kPointBatch;
  request.sources = sources;
  request.targets = targets;
  std::vector<Dist> dists(targets.size());
  QueryOutput output;
  output.distances = dists;
  ASSERT_TRUE(threaded_->Execute(request, output).ok());

  for (size_t i = 0; i < plans.size(); ++i) {
    std::string staged;
    staging.AppendStagedResponse(plans[i], dists, {}, &staged);
    ASSERT_FALSE(staged.empty());
    staged.pop_back();  // trailing newline, like Handle()
    EXPECT_EQ(staged, Handle(kLines[i])) << kLines[i];
  }
}

/// The response a staged `op` line must produce for `dists`, built without
/// the server's number writer: std::to_string per entry, null for kInfDist.
std::string ReferenceDistancesResponse(std::string_view op,
                                       std::span<const Dist> dists) {
  std::string line = "{\"ok\":true,\"op\":\"" + std::string(op) +
                     "\",\"distances\":[";
  for (size_t i = 0; i < dists.size(); ++i) {
    if (i != 0) line += ',';
    line += dists[i] == kInfDist ? "null" : std::to_string(dists[i]);
  }
  return line + "]}\n";
}

/// `values` joined the way the wire must print them, entry by entry
/// through std::to_chars (null for a kInfDist distance).
template <typename T>
std::string ToCharsJoin(std::span<const T> values) {
  std::string text;
  char buf[24];
  for (size_t i = 0; i < values.size(); ++i) {
    if (i != 0) text += ',';
    if constexpr (std::is_same_v<T, Dist>) {
      if (values[i] == kInfDist) {
        text += "null";
        continue;
      }
    }
    text.append(buf, std::to_chars(buf, buf + sizeof(buf), values[i]).ptr);
  }
  return text;
}

/// Every power-of-ten neighbour 10^k - 1, 10^k, 10^k + 1 that fits in T,
/// plus 2^32 +- 1 where it fits and T's largest value, then `random`
/// seeded values spread evenly over every digit length of T.
template <typename T>
std::vector<T> WriterProbeValues(size_t random) {
  std::vector<T> values;
  const T max = std::numeric_limits<T>::max();
  for (T p = 1;; p *= 10) {
    values.push_back(p - 1);
    values.push_back(p);
    values.push_back(p + 1);
    if (p > max / 10) break;
  }
  if constexpr (sizeof(T) == 8) {
    values.push_back((T{1} << 32) - 1);
    values.push_back((T{1} << 32) + 1);
  }
  values.push_back(max - 1);
  values.push_back(max);  // kInfDist: null in a distance list
  const int digits = std::numeric_limits<T>::digits10 + 1;
  std::mt19937_64 rng(20);
  for (size_t i = 0; i < random; ++i) {
    const int length = static_cast<int>(i % digits) + 1;
    uint64_t low = 1;
    for (int d = 1; d < length; ++d) low *= 10;
    const uint64_t high = length == digits ? max : low * 10 - 1;
    if (length == 1) low = 0;
    values.push_back(static_cast<T>(low + rng() % (high - low + 1)));
  }
  return values;
}

TEST_F(WireTest, NumberListsMatchToStringJoinByteForByte) {
  // Distance lists are formatted through fixed-size blocks that hold whole
  // entries. Entries of every width — 1 to 20 digits and null — and spans
  // long enough to cross many block boundaries at shifting offsets must
  // read exactly like the naive per-entry join.
  const Dist kEdge[] = {0, 9, 10, 99, kInfDist - 1, kInfDist};
  std::vector<Dist> mixed;
  for (size_t i = 0; i < 3000; ++i) {
    mixed.push_back(i % 3 == 0 ? kEdge[i / 3 % std::size(kEdge)]
                               : static_cast<Dist>(i) * 0x9E3779B97F4A7C15u >>
                                     (i % 64));
  }
  const std::vector<Dist> widest(1000, kInfDist - 1);  // 21 bytes each
  const std::vector<Dist> nulls(1000, kInfDist);

  RequestHandler handler;  // hook-less: AppendStagedResponse only formats
  const auto check = [&](WireOp op, std::span<const Dist> dists, size_t first,
                         size_t count) {
    RequestHandler::StagePlan plan;
    plan.op = op;
    plan.first = first;
    plan.count = count;
    std::string out = "prefix:";  // the writer appends, never overwrites
    handler.AppendStagedResponse(plan, dists, {}, &out);
    EXPECT_EQ(out, "prefix:" + ReferenceDistancesResponse(
                                   WireOpName(op), dists.subspan(first, count)))
        << "first " << first << " count " << count;
  };
  check(WireOp::kBatch, mixed, 0, mixed.size());
  check(WireOp::kPoint, mixed, 17, 2001);  // an interior slice
  check(WireOp::kBatch, widest, 0, widest.size());
  check(WireOp::kBatch, nulls, 0, nulls.size());
  check(WireOp::kPoint, mixed, 5, 0);  // empty
  for (const Dist d : kEdge) {         // one entry of each edge width
    const std::vector<Dist> one{d};
    check(WireOp::kBatch, one, 0, 1);
  }

  // The number writer itself formats values below 10^8 four digits at a
  // time and hands larger ones to std::to_chars; either way each entry must
  // read exactly like std::to_chars, for distance lists and vertex-id lists
  // (routes) alike.
  const std::vector<Dist> dists = WriterProbeValues<Dist>(1'200'000);
  std::string out = "prefix:";
  AppendNumberList(&out, std::span<const Dist>(dists));
  EXPECT_TRUE(out == "prefix:" + ToCharsJoin<Dist>(dists));
  const std::vector<Vertex> vertices = WriterProbeValues<Vertex>(1'000'000);
  out = "prefix:";
  AppendNumberList(&out, std::span<const Vertex>(vertices));
  EXPECT_TRUE(out == "prefix:" + ToCharsJoin<Vertex>(vertices));
  // One entry at a time, so a mismatch names its value.
  for (const Dist d : WriterProbeValues<Dist>(0)) {
    out.clear();
    AppendNumberList(&out, std::span<const Dist>(&d, 1));
    EXPECT_EQ(out, ToCharsJoin<Dist>(std::span<const Dist>(&d, 1)));
  }
}

TEST(NumberWriterTest, GroupsOfFourMatchToCharsByteForByte) {
  // Distance lists may be formatted four entries at a time: a group of
  // four values below 10^8 in one step, any other group and the last
  // entries of a list entry by entry. Every way a list can fall into such
  // groups must read exactly like std::to_chars.
  const auto expect_matches = [](std::span<const Dist> values,
                                 const std::string& what) {
    std::string out = "prefix:";
    AppendNumberList(&out, values);
    ASSERT_TRUE(out == "prefix:" + ToCharsJoin<Dist>(values)) << what;
  };

  // Lists of every length 0-12 at every start offset of the probe values,
  // so each probe value lands in every lane of a group and in the tail.
  const std::vector<Dist> probe = WriterProbeValues<Dist>(0);
  for (size_t len = 0; len <= 12; ++len) {
    for (size_t first = 0; first + len <= probe.size(); ++first) {
      expect_matches(std::span<const Dist>(probe).subspan(first, len),
                     "first " + std::to_string(first) + " len " +
                         std::to_string(len));
    }
  }

  // A null or a value of 10^8 or more in each lane of a group of small
  // values, and groups made only of such entries.
  const Dist kOutliers[] = {kInfDist,        100'000'000,    99'999'999,
                            100'000'001,     kInfDist - 1,   uint64_t{1} << 32,
                            uint64_t{1} << 27};
  for (const Dist outlier : kOutliers) {
    for (size_t lane = 0; lane < 4; ++lane) {
      std::vector<Dist> values = {7, 1234, 0, 98'765'432, 5, 10, 100, 1000};
      values[4 + lane] = outlier;
      expect_matches(values, "outlier " + std::to_string(outlier) +
                                 " lane " + std::to_string(lane));
    }
    expect_matches(std::vector<Dist>(8, outlier),
                   "all outliers " + std::to_string(outlier));
  }

  // Runs crossing the 4 KiB formatting block at shifting offsets: widths
  // of 1 to 8 digits, with a null or a wide value now and then.
  std::mt19937_64 rng(27);
  for (const size_t count : {400, 455, 456, 457, 1000, 5003}) {
    std::vector<Dist> values(count);
    for (size_t i = 0; i < count; ++i) {
      const uint64_t kind = rng() % 40;
      values[i] = kind == 0   ? kInfDist
                  : kind == 1 ? rng()
                              : rng() % (uint64_t{10} << (rng() % 24));
    }
    expect_matches(values, "block run " + std::to_string(count));
    std::vector<Dist> eight_digits(count);
    for (Dist& d : eight_digits) d = 10'000'000 + rng() % 90'000'000;
    expect_matches(eight_digits, "eight-digit run " + std::to_string(count));
  }

  // Every value in [0, 2^22) through full groups of four.
  std::vector<Dist> all(size_t{1} << 22);
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  expect_matches(all, "[0, 2^22)");
}

TEST(WireDisconnectedTest, MatrixNullsAndLongRoutesMatchReferences) {
  // Two components: a 1500-vertex path (its end-to-end route lists more
  // vertex ids than one formatting block holds) and a 20-vertex path. A
  // matrix across them has null cells.
  constexpr Vertex kLong = 1500;
  constexpr Vertex kShort = 20;
  GraphBuilder b(kLong + kShort);
  for (Vertex v = 0; v + 1 < kLong; ++v) b.AddEdge(v, v + 1, 1 + v % 7);
  for (Vertex v = kLong; v + 1 < kLong + kShort; ++v) {
    b.AddEdge(v, v + 1, 1000 + v);
  }
  Result<Router> built = Router::Build(std::move(b).Build());
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Result<ThreadedRouter> threaded = built->WithThreads(2);
  ASSERT_TRUE(threaded.ok());
  RequestHandler handler;
  const auto handle = [&](const std::string& line) {
    std::string out;
    handler.HandleLine(line, *built, *threaded, &out);
    return out;
  };
  const auto dist_text = [&](Vertex s, Vertex t) {
    const Result<Dist> d = built->Distance(s, t);
    EXPECT_TRUE(d.ok());
    return *d == kInfDist ? std::string("null") : std::to_string(*d);
  };

  const std::vector<Vertex> sources = {0, kLong, 777, kLong + kShort - 1};
  const std::vector<Vertex> targets = {kLong - 1, kLong + 3, 0, 5, kLong};
  std::string request = "{\"op\":\"matrix\",\"sources\":[";
  for (size_t i = 0; i < sources.size(); ++i) {
    request += (i != 0 ? "," : "") + std::to_string(sources[i]);
  }
  request += "],\"targets\":[";
  for (size_t i = 0; i < targets.size(); ++i) {
    request += (i != 0 ? "," : "") + std::to_string(targets[i]);
  }
  request += "]}";
  std::string want = "{\"ok\":true,\"op\":\"matrix\",\"rows\":4,\"cols\":5,"
                     "\"distances\":[";
  size_t nulls = 0;
  for (size_t i = 0; i < sources.size(); ++i) {
    for (size_t j = 0; j < targets.size(); ++j) {
      if (i + j != 0) want += ',';
      const std::string cell = dist_text(sources[i], targets[j]);
      nulls += cell == "null";
      want += cell;
    }
  }
  want += "]}\n";
  EXPECT_EQ(nulls, 10u);  // 2 per long-path source, 3 per short-path one
  EXPECT_EQ(handle(request), want);

  // End-to-end route along the long path, in the k <= 1 and k >= 2 shapes.
  RoutePath path;
  ASSERT_TRUE(built->Route(0, kLong - 1, &path).ok());
  ASSERT_EQ(path.vertices.size(), kLong);
  std::string vertices;
  for (size_t i = 0; i < path.vertices.size(); ++i) {
    if (i != 0) vertices += ',';
    vertices += std::to_string(path.vertices[i]);
  }
  EXPECT_EQ(handle(R"({"op":"route","source":0,"target":1499})"),
            "{\"ok\":true,\"op\":\"route\",\"distance\":" +
                std::to_string(path.weight) + ",\"vertices\":[" + vertices +
                "]}\n");
  const auto alts = built->Routes(0, kLong - 1, 2);
  ASSERT_TRUE(alts.ok()) << alts.status().ToString();
  std::string kwant = "{\"ok\":true,\"op\":\"route\",\"count\":" +
                      std::to_string(alts->size()) + ",\"routes\":[";
  for (size_t i = 0; i < alts->size(); ++i) {
    if (i != 0) kwant += ',';
    kwant += "{\"distance\":" + std::to_string((*alts)[i].weight) +
             ",\"vertices\":[";
    for (size_t j = 0; j < (*alts)[i].vertices.size(); ++j) {
      if (j != 0) kwant += ',';
      kwant += std::to_string((*alts)[i].vertices[j]);
    }
    kwant += "]}";
  }
  kwant += "]}\n";
  EXPECT_EQ(handle(R"({"op":"route","source":0,"target":1499,"k":2})"), kwant);

  // Across the components: unreachable, null with no vertices.
  EXPECT_EQ(handle(R"({"op":"route","source":0,"target":1500})"),
            "{\"ok\":true,\"op\":\"route\",\"distance\":null,"
            "\"vertices\":[]}\n");
}

/// Comma-joined decimal ids for a request line.
std::string IdList(std::span<const Vertex> ids) {
  std::string text;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i != 0) text += ',';
    text += std::to_string(ids[i]);
  }
  return text;
}

/// A distance list as the wire must print it, built per entry with
/// std::to_string, null for kInfDist.
std::string ReferenceList(std::span<const Dist> dists) {
  std::string text;
  for (size_t i = 0; i < dists.size(); ++i) {
    if (i != 0) text += ',';
    text += dists[i] == kInfDist ? "null" : std::to_string(dists[i]);
  }
  return text;
}

/// The response line of a list op: `{"ok":true,"op":"<op>"<fields>,
/// "distances":[...]}`, the list built by ReferenceList.
std::string ListResponse(std::string_view op, std::string_view fields,
                         std::span<const Dist> dists) {
  std::string line = "{\"ok\":true,\"op\":\"" + std::string(op) + "\"";
  line += fields;
  line += ",\"distances\":[" + ReferenceList(dists) + "]}\n";
  return line;
}

/// Batch, point and matrix (monolithic and streamed) response lines of one
/// index: each HandleLine answer, from engines of every thread count, must
/// equal a reference built from the sequential Router alone.
void ExpectListsIndependentOfThreads(const Router& router, uint64_t seed) {
  const Vertex n = static_cast<Vertex>(router.NumVertices());
  // `bad_every` > 0 replaces every bad_every-th id with an out-of-range one,
  // which "missing":"unreachable" answers with null cells.
  const auto ids = [&](size_t count, uint64_t salt, size_t bad_every) {
    std::vector<Vertex> out(count);
    for (size_t i = 0; i < count; ++i) {
      out[i] = static_cast<Vertex>((i * 37 + salt * 101 + seed) % n);
      if (bad_every != 0 && i % bad_every == bad_every - 1) out[i] = n + 3;
    }
    return out;
  };
  const auto reference = [&](QueryKind kind, std::span<const Vertex> sources,
                             std::span<const Vertex> targets, bool lenient) {
    QueryRequest req;
    req.kind = kind;
    req.sources = sources;
    req.targets = targets;
    if (lenient) {
      req.options.missing_vertices = MissingVertexPolicy::kUnreachable;
    }
    size_t slots = targets.size();
    if (kind == QueryKind::kMatrix) slots *= sources.size();
    std::vector<Dist> dists(slots);
    const Result<QueryResponse> response =
        router.Execute(req, QueryOutput{dists});
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return dists;
  };

  struct Probe {
    std::string line;
    std::string want;
  };
  std::vector<Probe> probes;
  for (const bool lenient : {false, true}) {
    const size_t bad = lenient ? 97 : 0;
    const std::string opts = lenient ? ",\"missing\":\"unreachable\"}" : "}";
    const std::vector<Vertex> one = {static_cast<Vertex>(seed % n)};
    const std::vector<Vertex> targets = ids(4096, 1, bad);
    const std::vector<Vertex> sources = ids(4096, 2, bad);
    std::string batch = "{\"op\":\"batch\",\"source\":" + IdList(one);
    batch += ",\"targets\":[" + IdList(targets) + "]" + opts;
    const std::vector<Dist> batch_dists =
        reference(QueryKind::kPointBatch, one, targets, lenient);
    probes.push_back({batch, ListResponse("batch", "", batch_dists)});
    std::string point = "{\"op\":\"point\",\"sources\":[" + IdList(sources);
    point += "],\"targets\":[" + IdList(targets) + "]" + opts;
    const std::vector<Dist> point_dists =
        reference(QueryKind::kPointBatch, sources, targets, lenient);
    probes.push_back({point, ListResponse("point", "", point_dists)});

    const auto add_matrix = [&](size_t rows, size_t cols) {
      const std::vector<Vertex> ms = ids(rows, 3 + rows, bad);
      const std::vector<Vertex> mt = ids(cols, 4 + cols, bad);
      const std::vector<Dist> cells =
          reference(QueryKind::kMatrix, ms, mt, lenient);
      std::string request = "{\"op\":\"matrix\",\"sources\":[" + IdList(ms);
      request += "],\"targets\":[" + IdList(mt) + "]";
      std::string shape = ",\"rows\":" + std::to_string(rows);
      shape += ",\"cols\":" + std::to_string(cols);
      probes.push_back({request + opts, ListResponse("matrix", shape, cells)});
      // The streamed framing: whole rows per chunk, chunks in order.
      size_t rows_per_chunk = 1;
      if (cols != 0) {
        rows_per_chunk = std::max<size_t>(1, kStreamChunkEntries / cols);
      }
      const std::string entries = std::to_string(rows_per_chunk * cols);
      std::string want = "{\"ok\":true,\"op\":\"matrix\",\"stream\":true";
      want += shape + ",\"chunk_entries\":" + entries + "}\n";
      size_t chunks = 0;
      for (size_t r0 = 0; r0 < rows && cols > 0; r0 += rows_per_chunk) {
        const size_t count = std::min(rows_per_chunk, rows - r0) * cols;
        std::string frame = ",\"chunk\":" + std::to_string(chunks++);
        frame += ",\"count\":" + std::to_string(count);
        const auto chunk = std::span(cells).subspan(r0 * cols, count);
        want += ListResponse("matrix", frame, chunk);
      }
      want += "{\"ok\":true,\"op\":\"matrix\",\"done\":true,\"chunks\":";
      want += std::to_string(chunks) + ",\"entries\":";
      want += std::to_string(rows * cols) + "}\n";
      probes.push_back({request + ",\"stream\":true" + opts, want});
    };
    // Even and uneven row slices, column slices (wide shapes), a single
    // cell, an empty side and a multi-chunk stream.
    add_matrix(256, 256);
    add_matrix(255, 257);
    add_matrix(257, 255);
    add_matrix(3, 4096);
    add_matrix(1, 4096);
    add_matrix(4096, 1);
    add_matrix(1, 1);
    add_matrix(5, 0);
    add_matrix(300, 300);
  }

  for (const uint32_t threads : {1u, 2u, 3u, 8u}) {
    Result<ThreadedRouter> threaded = router.WithThreads(threads);
    ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();
    RequestHandler handler;
    for (const Probe& probe : probes) {
      std::string out = "prefix:";  // responses append, never overwrite
      handler.HandleLine(probe.line, router, *threaded, &out);
      EXPECT_TRUE(out == "prefix:" + probe.want)
          << threads << " threads, request " << probe.line.substr(0, 80)
          << "..., got " << out.substr(0, 200) << "...";
    }
  }
}

TEST(WireThreadsTest, ListsAreByteIdenticalAcrossThreadCounts) {
  Result<Router> undirected = Router::Build(WireTestGraph());
  ASSERT_TRUE(undirected.ok()) << undirected.status().ToString();
  ExpectListsIndependentOfThreads(*undirected, 11);

  RoadNetworkOptions opt;
  opt.rows = 10;
  opt.cols = 10;
  opt.seed = 98;
  Result<Router> directed =
      Router::Build(GenerateDirectedRoadNetwork(opt, /*oneway_frac=*/0.3));
  ASSERT_TRUE(directed.ok()) << directed.status().ToString();
  ASSERT_TRUE(directed->directed());
  ExpectListsIndependentOfThreads(*directed, 12);
}

TEST(WireThreadsTest, ExpiredMatrixYieldsOnlyTheErrorLine) {
  // The largest monolithic matrix a request may ask for, with a 1 ms
  // budget: its ranges are formatted as they finish, but a request that
  // runs out of time must answer with the error line alone.
  Result<Router> router = Router::Build(WireTestGraph());
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  const Vertex n = static_cast<Vertex>(router->NumVertices());
  std::vector<Vertex> side(2048);
  for (size_t i = 0; i < side.size(); ++i) {
    side[i] = static_cast<Vertex>(i * 13 % n);
  }
  std::string line = "{\"op\":\"matrix\",\"sources\":[" + IdList(side);
  line += "],\"targets\":[" + IdList(side) + "],\"deadline_ms\":1}";
  for (const uint32_t threads : {1u, 2u, 3u, 8u}) {
    Result<ThreadedRouter> threaded = router->WithThreads(threads);
    ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();
    RequestHandler handler;
    std::string out;
    handler.HandleLine(line, *router, *threaded, &out);
    EXPECT_EQ(out.rfind("{\"ok\":false,\"code\":\"DeadlineExceeded\"", 0), 0u)
        << threads << " threads: " << out.substr(0, 120);
    EXPECT_EQ(out.find('\n'), out.size() - 1) << threads << " threads";
    EXPECT_EQ(out.find("distances"), std::string::npos) << threads;
  }
}

TEST_F(WireTest, IneligibleLinesAreNotStaged) {
  RequestHandler staging;
  std::vector<Vertex> sources;
  std::vector<Vertex> targets;
  RequestHandler::StagePlan plan;

  const auto prepare = [&](std::string_view line, std::string* out) {
    return staging.Prepare(line, *router_, *threaded_, &sources,
                           &targets, &plan, {}, out);
  };
  std::string out;
  // Custom options, an out-of-range id under the error policy, too many
  // pairs, and non-point ops must all take the kExecute (or kDone) path:
  // their answers could depend on batching or need their own parse state.
  EXPECT_EQ(prepare(R"({"op":"point","sources":[1],"targets":[2],)"
                    R"("deadline_ms":100})",
                    &out),
            RequestHandler::LineAction::kExecute);
  EXPECT_EQ(prepare(R"({"op":"point","sources":[1],"targets":[2],)"
                    R"("threads":2})",
                    &out),
            RequestHandler::LineAction::kExecute);
  EXPECT_EQ(prepare(R"({"op":"batch","source":0,"targets":)"
                    R"([1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17]})",
                    &out),
            RequestHandler::LineAction::kExecute);  // 17 pairs > 16 max
  EXPECT_EQ(prepare(R"({"op":"matrix","sources":[1],"targets":[2]})", &out),
            RequestHandler::LineAction::kExecute);
  EXPECT_EQ(prepare(R"({"op":"ping"})", &out),
            RequestHandler::LineAction::kDone);
  // No pairs were appended by any of the above.
  EXPECT_TRUE(sources.empty());
  EXPECT_TRUE(targets.empty());
  // Without run arrays to stage into (as HandleLine calls it) even an
  // eligible line takes the execute path.
  EXPECT_EQ(staging.Prepare(R"({"op":"point","sources":[1],"targets":[2]})",
                            *router_, *threaded_, nullptr, nullptr, nullptr,
                            {}, &out),
            RequestHandler::LineAction::kExecute);
  EXPECT_TRUE(sources.empty());
}

TEST_F(WireTest, StagedLatencyIsRecordedFromPrepare) {
  // A staged request's latency spans the `received` time handed to
  // Prepare() (the reactor: the read that delivered the line) to the `done`
  // time handed to AppendStagedResponse (the reactor: one clock read per
  // coalesced run), so parse, the wait for the shared batch and execute all
  // count; the handler reads no clock of its own on this path.
  std::vector<std::pair<WireOp, uint64_t>> records;
  ServerHooks hooks;
  hooks.record = [&records](WireOp op, uint64_t ns) {
    records.emplace_back(op, ns);
  };
  RequestHandler staging(std::move(hooks));
  std::vector<Vertex> sources;
  std::vector<Vertex> targets;
  RequestHandler::StagePlan point_plan;
  RequestHandler::StagePlan batch_plan;
  std::string out;
  const RequestHandler::Clock::time_point read_at =
      RequestHandler::Clock::now();
  constexpr std::chrono::microseconds kBatchGap(250);
  ASSERT_EQ(staging.Prepare(R"({"op":"point","sources":[3],"targets":[77]})",
                            *router_, *threaded_, &sources, &targets,
                            &point_plan, read_at, &out),
            RequestHandler::LineAction::kStaged);
  ASSERT_EQ(staging.Prepare(R"({"op":"batch","source":5,"targets":[1,2]})",
                            *router_, *threaded_, &sources, &targets,
                            &batch_plan, read_at + kBatchGap, &out),
            RequestHandler::LineAction::kStaged);

  QueryRequest request;
  request.kind = QueryKind::kPointBatch;
  request.sources = sources;
  request.targets = targets;
  std::vector<Dist> dists(targets.size());
  QueryOutput output;
  output.distances = dists;
  ASSERT_TRUE(threaded_->Execute(request, output).ok());
  // Other connections' lines joining the same batch take this long.
  constexpr std::chrono::milliseconds kRun(20);
  staging.AppendStagedResponse(point_plan, dists, read_at + kRun, &out);
  staging.AppendStagedResponse(batch_plan, dists, read_at + kRun, &out);

  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].first, WireOp::kPoint);
  EXPECT_EQ(records[1].first, WireOp::kBatch);
  EXPECT_EQ(records[0].second,
            static_cast<uint64_t>(std::chrono::nanoseconds(kRun).count()));
  EXPECT_EQ(records[1].second, static_cast<uint64_t>(
                                   std::chrono::nanoseconds(kRun - kBatchGap)
                                       .count()));

  // HandleLine reads the clock at its own entry and at the end of the
  // execution: one record per executed line, never an unset start.
  records.clear();
  const RequestHandler::Clock::time_point before =
      RequestHandler::Clock::now();
  out.clear();
  staging.HandleLine(R"({"op":"point","sources":[3],"targets":[77]})",
                     *router_, *threaded_, &out);
  const uint64_t bound = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          RequestHandler::Clock::now() - before)
          .count());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].first, WireOp::kPoint);
  EXPECT_LE(records[0].second, bound);
}

}  // namespace
}  // namespace hc2l
