#include "core/migration.h"

#include "objects/opr.h"

namespace legion {

namespace {

struct MigrationState {
  SimKernel* kernel;
  Loid agent, object, to_host, to_vault;
  Loid from_host, from_vault;
  SimTime started;
  Callback<MigrationOutcome> done;

  void Finish(bool success, std::string detail) {
    MigrationOutcome outcome;
    outcome.success = success;
    outcome.from_host = from_host;
    outcome.to_host = to_host;
    outcome.elapsed = kernel->Now() - started;
    outcome.detail = std::move(detail);
    done(std::move(outcome));
  }
};

void Reactivate(const std::shared_ptr<MigrationState>& state) {
  CallOn<bool, HostObject>(
      state->kernel, state->agent, state->to_host, kSmallMessage,
      kSmallMessage, kDefaultRpcTimeout,
      [object = state->object, vault = state->to_vault](
          HostObject& host, Callback<bool> reply) {
        host.ReactivateObject(object, vault, std::move(reply));
      },
      [state](Result<bool> reactivated) {
        if (!reactivated.ok() || !*reactivated) {
          state->Finish(false, "reactivation failed: " +
                                   (reactivated.ok()
                                        ? std::string("refused")
                                        : reactivated.status().ToString()));
          return;
        }
        state->Finish(true, "");
      },
      "reactivate_object");
}

void MoveOpr(const std::shared_ptr<MigrationState>& state) {
  if (state->from_vault == state->to_vault) {
    Reactivate(state);
    return;
  }
  // Fetch from the old vault; the reply message carries the OPR bytes.
  CallOn<Opr, VaultInterface>(
      state->kernel, state->agent, state->from_vault, kSmallMessage,
      kLargeMessage, kDefaultRpcTimeout,
      [object = state->object](VaultInterface& vault, Callback<Opr> reply) {
        vault.FetchOpr(object, std::move(reply));
      },
      [state](Result<Opr> opr) {
        if (!opr.ok()) {
          state->Finish(false, "OPR fetch failed: " + opr.status().ToString());
          return;
        }
        const std::size_t opr_bytes = opr->SizeBytes();
        CallOn<bool, VaultInterface>(
            state->kernel, state->agent, state->to_vault, opr_bytes,
            kSmallMessage, kDefaultRpcTimeout,
            [opr = *opr](VaultInterface& vault, Callback<bool> reply) {
              vault.StoreOpr(opr, std::move(reply));
            },
            [state](Result<bool> stored) {
              if (!stored.ok() || !*stored) {
                state->Finish(false, "OPR store at target vault failed");
                return;
              }
              // Best-effort cleanup of the old copy.
              CallOn<bool, VaultInterface>(
                  state->kernel, state->agent, state->from_vault,
                  kSmallMessage, kSmallMessage, kDefaultRpcTimeout,
                  [object = state->object](VaultInterface& vault,
                                           Callback<bool> reply) {
                    vault.DeleteOpr(object, std::move(reply));
                  },
                  [](Result<bool>) {}, "delete_opr");
              Reactivate(state);
            },
            "store_opr");
      },
      "fetch_opr");
}

}  // namespace

void MigrateObject(SimKernel* kernel, const Loid& agent, const Loid& object,
                   const Loid& to_host, const Loid& to_vault,
                   Callback<MigrationOutcome> done) {
  auto state = std::make_shared<MigrationState>();
  state->kernel = kernel;
  state->agent = agent;
  state->object = object;
  state->to_host = to_host;
  state->to_vault = to_vault;
  state->started = kernel->Now();
  state->done = std::move(done);

  auto* legion_object = dynamic_cast<LegionObject*>(kernel->FindActor(object));
  if (legion_object == nullptr || !legion_object->active()) {
    state->Finish(false, "object is not active");
    return;
  }
  state->from_host = legion_object->host();
  state->from_vault = legion_object->vault();

  CallOn<bool, HostInterface>(
      kernel, agent, state->from_host, kSmallMessage, kSmallMessage,
      kDefaultRpcTimeout,
      [object](HostInterface& host, Callback<bool> reply) {
        host.DeactivateObject(object, std::move(reply));
      },
      [state](Result<bool> deactivated) {
        if (!deactivated.ok() || !*deactivated) {
          state->Finish(false, "deactivation failed");
          return;
        }
        MoveOpr(state);
      },
      "deactivate_object");
}

}  // namespace legion
