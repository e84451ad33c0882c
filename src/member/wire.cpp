#include "member/wire.h"

namespace lds::member {

void register_member_wire() {
  static const net::codec::SchemaCodec<MemberMessage> codec("member");
  static const bool once = [] {
    net::codec::register_family(net::codec::Family::Member, &codec);
    return true;
  }();
  (void)once;
}

}  // namespace lds::member
