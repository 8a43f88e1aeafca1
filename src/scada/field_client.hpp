// Protocol adapters between the SCADA proxy (scada::FleetProxy) and a
// field device it polls. The proxy's job (poll state, forward voted
// commands) is identical for a Modbus PLC and a DNP3 RTU; only the wire
// conversation differs
// (paper §II: "their typical, insecure industrial communication
// protocols, such as Modbus or DNP3, are used only on the direct
// connection between the PLC or RTU and its proxy").
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dnp3/endpoint.hpp"
#include "modbus/endpoint.hpp"
#include "sim/simulator.hpp"

namespace spire::scada {

class FieldClient {
 public:
  struct FieldState {
    std::vector<bool> breakers;          ///< actual positions
    std::vector<std::uint16_t> readings; ///< load currents etc.
  };
  using PollHandler = std::function<void(std::optional<FieldState>)>;

  virtual ~FieldClient() = default;

  /// Reads the device's current state.
  virtual void poll(PollHandler handler, sim::Time timeout) = 0;
  /// Commands one breaker (fire and forget; the next poll confirms).
  virtual void command(std::uint16_t breaker, bool close) = 0;
  /// Bytes received from the device.
  virtual void on_data(std::span<const std::uint8_t> data) = 0;
};

/// Modbus/TCP adapter: discrete inputs + input registers, coil writes.
class ModbusFieldClient : public FieldClient {
 public:
  ModbusFieldClient(sim::Simulator& sim, const std::string& name,
                    std::size_t breaker_count, modbus::Client::SendFn send);

  void poll(PollHandler handler, sim::Time timeout) override;
  void command(std::uint16_t breaker, bool close) override;
  void on_data(std::span<const std::uint8_t> data) override;

 private:
  std::size_t breaker_count_;
  modbus::Client client_;
};

/// DNP3 adapter: class-0 integrity polls, CROB direct operates.
class Dnp3FieldClient : public FieldClient {
 public:
  Dnp3FieldClient(sim::Simulator& sim, const std::string& name,
                  std::size_t breaker_count, dnp3::Master::SendFn send,
                  std::uint16_t master_address = 100,
                  std::uint16_t outstation_address = 1);

  void poll(PollHandler handler, sim::Time timeout) override;
  void command(std::uint16_t breaker, bool close) override;
  void on_data(std::span<const std::uint8_t> data) override;

 private:
  std::size_t breaker_count_;
  dnp3::Master master_;
};

}  // namespace spire::scada
